//! Spans recorded by the harness around each call into a layer. Kept in
//! memory during the run and written out afterwards (`--trace-out`).

use std::time::Instant;

/// One span: a named interval belonging to operation `op`, caused by
/// `parent` (an index into the same list).
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// A span list on one clock. Each driver thread owns one (all created
/// from the same epoch) and the lists are merged after the window.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span and returns its index, for children to name.
    pub fn add(
        &mut self,
        op: u32,
        parent: Option<u32>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u32 {
        self.spans.push(Span {
            op,
            parent,
            name,
            start_us,
            end_us,
        });
        (self.spans.len() - 1) as u32
    }

    /// Appends another thread's spans. An operation's id is the index of
    /// its root span, so ids and parent links shift together and stay
    /// distinct across the merged lists.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.op += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of span `i`: its duration minus what its children cover.
    pub fn self_us(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i as u32))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us - children).max(0.0)
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    serde_json::json!({
                        "id": i,
                        "op": s.op,
                        "parent": s.parent,
                        "name": s.name,
                        "start_us": s.start_us,
                        "end_us": s.end_us,
                        "self_us": self.self_us(i),
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_merge_keeps_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.add(0, None, "op", 0.0, 100.0);
        a.add(0, Some(root), "child", 10.0, 40.0);
        a.add(0, Some(root), "child", 50.0, 70.0);
        assert_eq!(a.self_us(0), 50.0);
        // A second thread numbers its operations from 0 as well.
        let mut b = Tracer::new(epoch);
        let r = b.add(0, None, "op", 0.0, 10.0);
        b.add(0, Some(r), "child", 0.0, 4.0);
        a.merge(b);
        assert_eq!(a.spans[4].parent, Some(3));
        let ops: Vec<u32> = a.spans.iter().map(|s| s.op).collect();
        assert_eq!(ops, [0, 0, 0, 3, 3], "operations keep distinct ids");
        assert_eq!(a.self_us(3), 6.0);
        assert_eq!(a.to_json().as_array().unwrap().len(), 5);
    }
}
