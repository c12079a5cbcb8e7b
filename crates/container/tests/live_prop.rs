//! Append-under-read torture for the live container: arbitrary
//! interleavings of appends, mid-append crashes (torn batch records),
//! and reads must always yield the last *committed* prefix — never a
//! parse error, never a torn batch — and the recovered stream's digest
//! must match a from-scratch seal of the same packets.

use proptest::prelude::*;
use v2v_codec::CodecParams;
use v2v_container::{read_svc, read_svc_live, LiveWriter, VideoStream};
use v2v_frame::{Frame, FrameType};
use v2v_time::{r, Rational};

const GOP: usize = 4;
const TOTAL: usize = 64;

/// The full source history every test draws batches from.
fn history() -> VideoStream {
    let ty = FrameType::gray8(32, 32);
    let params = CodecParams::new(ty, GOP as u32, 0);
    let mut w = v2v_container::StreamWriter::new(params, Rational::ZERO, r(1, 30));
    for i in 0..TOTAL {
        let mut f = Frame::black(ty);
        for (k, v) in f.plane_mut(0).data_mut().iter_mut().enumerate() {
            *v = ((i * 31 + k) % 256) as u8;
        }
        w.push_frame(&f).unwrap();
    }
    w.finish().unwrap()
}

/// Frames `a..b` of the history, stamped at their absolute instants.
fn slice(h: &VideoStream, a: usize, b: usize) -> VideoStream {
    let at = h.start() + h.frame_dur() * Rational::from_int(a as i64);
    let packets = h.copy_packet_range(a, b, at).unwrap();
    VideoStream::new(*h.params(), at, h.frame_dur(), packets).unwrap()
}

/// A from-scratch seal of the first `n` frames: the digest ground
/// truth a recovered live prefix must match.
fn sealed_prefix(h: &VideoStream, n: usize) -> VideoStream {
    let packets = h.copy_packet_range(0, n, h.start()).unwrap();
    VideoStream::new(*h.params(), h.start(), h.frame_dur(), packets).unwrap()
}

/// A file in a fresh directory of its own (test name + pid + counter):
/// cases of one test, tests of one binary and concurrent test processes
/// never share a path.
fn tmp(test: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "v2v_live_prop_{test}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("live.svc")
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

/// One scripted operation against the live file.
#[derive(Debug, Clone)]
enum Op {
    /// Append up to this many GOPs of fresh history (one batch).
    Append(usize),
    /// Append one GOP but tear the batch record at this byte fraction —
    /// the crash leaves a partial record on disk and kills the writer.
    Crash(f64),
    /// Scribble this many junk bytes past the committed end, as a torn
    /// header of a batch that never got further.
    Junk(usize),
    /// Read mid-history and check the committed prefix.
    Read,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..4).prop_map(Op::Append),
        (0.0f64..1.0).prop_map(Op::Crash),
        (1usize..24).prop_map(Op::Junk),
        Just(Op::Read),
    ]
}

/// Asserts the on-disk live container holds exactly the first
/// `committed` frames of the history, readable both through the live
/// reader and the format-sniffing `read_svc`, with digests equal to a
/// from-scratch seal.
fn check_committed(path: &std::path::Path, h: &VideoStream, committed: usize) {
    let live = read_svc_live(path).expect("committed prefix must always parse");
    assert_eq!(live.len(), committed, "reader sees the committed prefix");
    let sealed = sealed_prefix(h, committed);
    assert_eq!(
        live.content_digest(),
        sealed.content_digest(),
        "recovered prefix digest matches a from-scratch seal"
    );
    assert_eq!(
        live.content_digest(),
        h.prefix_digest(committed),
        "prefix-incremental digest agrees with the sealed prefix"
    );
    // The sniffing entry point agrees with the dedicated one.
    let sniffed = read_svc(path).expect("read_svc dispatches on the live magic");
    assert_eq!(sniffed.len(), committed);
    assert_eq!(sniffed.content_digest(), sealed.content_digest());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of appends, torn-record crashes, junk tails,
    /// and reads keeps every read at the committed prefix, and
    /// recovery (`LiveWriter::open`) always resumes cleanly.
    #[test]
    fn interleaved_appends_crashes_and_reads_always_see_the_committed_prefix(
        ops in prop::collection::vec(op_strategy(), 1..12),
    ) {
        let h = history();
        let path = tmp("torture");

        let mut writer =
            Some(LiveWriter::create(&path, *h.params(), h.start(), h.frame_dur()).unwrap());
        let mut committed = 0usize;
        for op in ops {
            match op {
                Op::Append(gops) => {
                    let take = (gops * GOP).min(TOTAL - committed);
                    if take == 0 {
                        continue;
                    }
                    let w = match writer.as_mut() {
                        Some(w) => w,
                        None => {
                            writer = Some(LiveWriter::open(&path).unwrap());
                            writer.as_mut().unwrap()
                        }
                    };
                    w.append_stream(&slice(&h, committed, committed + take)).unwrap();
                    committed += take;
                    prop_assert_eq!(w.committed() as usize, committed);
                }
                Op::Crash(frac) => {
                    if committed + GOP > TOTAL {
                        continue;
                    }
                    // Perform a real append, then tear its record: the
                    // file keeps only a prefix of the batch bytes, as a
                    // crash between write and sync would leave it.
                    let w = match writer.as_mut() {
                        Some(w) => w,
                        None => {
                            writer = Some(LiveWriter::open(&path).unwrap());
                            writer.as_mut().unwrap()
                        }
                    };
                    // Measured after recovery: `open` truncates whatever
                    // debris an earlier crash or junk tail left behind.
                    let before = std::fs::metadata(&path).unwrap().len();
                    w.append_stream(&slice(&h, committed, committed + GOP)).unwrap();
                    let after = std::fs::metadata(&path).unwrap().len();
                    let record = after - before;
                    let keep = before + ((record - 1) as f64 * frac) as u64;
                    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    f.set_len(keep).unwrap();
                    drop(f);
                    writer = None; // the crash killed the writer
                }
                Op::Junk(n) => {
                    use std::io::Write as _;
                    let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
                    f.write_all(&vec![0xAAu8; n]).unwrap();
                    drop(f);
                    writer = None; // stale offsets: recover before reuse
                }
                Op::Read => check_committed(&path, &h, committed),
            }
            // Readers never depend on the writer being alive or sane.
            check_committed(&path, &h, committed);
        }

        // Recovery after the final op: open truncates debris and the
        // next append lands exactly where the model says.
        let mut w = writer.unwrap_or_else(|| LiveWriter::open(&path).unwrap());
        prop_assert_eq!(w.committed() as usize, committed);
        if committed < TOTAL {
            w.append_stream(&slice(&h, committed, TOTAL)).unwrap();
            committed = TOTAL;
        }
        drop(w);
        check_committed(&path, &h, committed);
        cleanup(&path);
    }
}

/// A live reader racing a live writer: every successful read taken
/// while batches are landing must be a committed, GOP-aligned prefix
/// whose digest matches the from-scratch seal of that length.
#[test]
fn concurrent_reads_only_ever_see_committed_prefixes() {
    let h = history();
    let path = tmp("concurrent");
    let mut writer = LiveWriter::create(&path, *h.params(), h.start(), h.frame_dur()).unwrap();

    // Digest ground truth for every batch boundary.
    let expect: Vec<u64> = (0..=TOTAL / GOP)
        .map(|k| sealed_prefix(&h, k * GOP).content_digest())
        .collect();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let path = path.clone();
        let stop = std::sync::Arc::clone(&stop);
        let expect = expect.clone();
        std::thread::spawn(move || {
            let mut seen = 0usize;
            let mut reads = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let s = read_svc_live(&path).expect("reads never fail mid-append");
                assert_eq!(s.len() % GOP, 0, "only whole batches are visible");
                assert!(s.len() >= seen, "committed prefixes only grow");
                seen = s.len();
                assert_eq!(
                    s.content_digest(),
                    expect[s.len() / GOP],
                    "every read is byte-identical to a sealed prefix"
                );
                reads += 1;
            }
            reads
        })
    };

    for k in 0..TOTAL / GOP {
        writer
            .append_stream(&slice(&h, k * GOP, (k + 1) * GOP))
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reads = reader.join().unwrap();
    assert!(reads > 0, "the reader must actually have raced the writer");
    assert_eq!(writer.committed() as usize, TOTAL);
    drop(writer);
    cleanup(&path);
}
