//! Format pins: one fixed stream written as a sealed `.svc`, an `.svf`
//! fragment, an `SVW1` wire frame and a two-batch live `SVCL` file must
//! produce exactly the recorded bytes, and each must parse back to the
//! same packets. A refactor of the container codecs that moves one byte
//! of any format fails here.

use v2v_codec::{CodecParams, Packet};
use v2v_container::{
    fragment_from_bytes, fragment_from_wire, fragment_to_bytes, fragment_to_wire, read_svc,
    svc_from_bytes, svc_to_bytes, Fnv64, Fragment, LiveWriter, StreamWriter, VideoStream,
};
use v2v_frame::{Frame, FrameType};
use v2v_time::r;

/// Ten marked frames in GOPs of four, on a grid that does not start at
/// zero (so the fragment's re-stamping is part of what is pinned).
fn marked_stream() -> VideoStream {
    let ty = FrameType::gray8(32, 32);
    let params = CodecParams::new(ty, 4, 0);
    let mut w = StreamWriter::new(params, r(7, 2), r(1, 30));
    for i in 0..10 {
        let mut f = Frame::black(ty);
        for v in f.plane_mut(0).data_mut() {
            *v = (i * 23 % 256) as u8;
        }
        f.plane_mut(0).put(i % 32, i % 32, 255);
        w.push_frame(&f).unwrap();
    }
    w.finish().unwrap()
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Payload and keyframe flag per packet: what every format must carry
/// through unchanged (timestamps are each format's own grid).
fn payloads(packets: &[Packet]) -> Vec<(bool, Vec<u8>)> {
    packets
        .iter()
        .map(|p| (p.keyframe, p.data.to_vec()))
        .collect()
}

#[test]
fn every_format_writes_the_recorded_bytes_and_reads_them_back() {
    let s = marked_stream();
    let expect = payloads(s.packets());

    let svc = svc_to_bytes(&s).unwrap();
    assert_eq!(fnv(&svc), 0x428e_126f_0a4d_9bb1, "sealed .svc bytes");
    let back = svc_from_bytes(&svc).unwrap();
    assert_eq!(back.content_digest(), s.content_digest());

    let frag = Fragment::from_stream(&s);
    let svf = fragment_to_bytes(&frag).unwrap();
    assert_eq!(fnv(&svf), 0xf3e2_906c_0a70_3479, ".svf bytes");
    let back = fragment_from_bytes(&svf).unwrap();
    assert_eq!(payloads(back.packets()), expect);
    assert_eq!(back.packets()[1].pts, r(1, 30));

    let wire = fragment_to_wire(0x0123_4567_89ab_cdef, &frag).unwrap();
    assert_eq!(fnv(&wire), 0x7c2f_7582_92df_ad18, "SVW1 bytes");
    let back = fragment_from_wire(&wire, 0x0123_4567_89ab_cdef).unwrap();
    assert_eq!(payloads(back.packets()), expect);

    let dir = std::env::temp_dir().join(format!("v2v_formats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.svc");
    let mut w = LiveWriter::create(&path, *s.params(), s.start(), s.frame_dur()).unwrap();
    w.append_packets(&s.packets()[..8]).unwrap();
    w.append_packets(&s.packets()[8..]).unwrap();
    drop(w);
    let live = std::fs::read(&path).unwrap();
    assert_eq!(fnv(&live), 0x6b3b_c4eb_748c_b9b2, "two-batch SVCL bytes");
    let back = read_svc(&path).unwrap();
    assert_eq!(back.content_digest(), s.content_digest());
    std::fs::remove_dir_all(&dir).unwrap();
}
