//! On-the-wire DyMA: adaptive aggregation of same-link [`Frame::Data`]
//! payloads into [`Frame::DataBatch`] frames (protocol v8).
//!
//! The paper's §DyMA results (~30% execution-time reduction on 10 Mb
//! Ethernet) came from aggregating events into physical messages under
//! a **dynamically configured window**; our reproduction previously
//! exercised the SAAW law only inside the simulated NOW cost model.
//! This module moves it onto the real data plane: each link owns a
//! [`LinkAggregator`] that buffers outbound `Data` frames, flushes them
//! as one `DataBatch` when the window expires (or sooner — see the
//! flush taxonomy below), and feeds the achieved `(size, age)` of every
//! departed aggregate back into [`warp_control::SaawLaw`] so the window
//! itself rides the control trajectory.
//!
//! Flush taxonomy (every flush records its cause in [`LinkAggStats`]):
//!
//! * **Expiry** — the oldest buffered frame reached the window age.
//! * **Critical** — a GVT-critical or control frame (token, snapshot,
//!   bye, …) was staged for the same link. Pending data flushes *first*
//!   so per-link FIFO order is exactly the unaggregated order; batching
//!   therefore never reorders anything the GVT or checkpoint planes
//!   depend on, it only delays data by at most one window.
//! * **Cap** — adding one more entry would push the encoded batch over
//!   the receiver's `max_frame_bytes` cap, or past `max_batch` entries.
//!   The pending batch departs and the new entry opens the next one.
//!   (The cap check uses exact encoded sizes, so a flush can never emit
//!   a frame the peer's [`FrameDecoder`](crate::FrameDecoder) would
//!   reject — the regression the old `ResumeChunk`-only clamping left
//!   open.)
//! * **Close** — the link is shutting down; residue departs unbatched
//!   of its window.
//!
//! The aggregator does no I/O of its own: the link's writer thread
//! drives the `offer`/`poll_expired`/`close` surface and stamps and
//! writes whatever departs.

use crate::frame::Frame;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use warp_control::SaawLaw;

/// Fixed per-frame overhead of a `Data` frame on the wire:
/// `[u32 len][u8 tag][u64 seq]` — everything before the epoch field.
const DATA_HEADER: usize = 4 + 1 + 8;

/// Fixed overhead of a `DataBatch` frame before its entries:
/// `[u32 len][u8 tag][u64 seq][u32 entry count]`.
const BATCH_HEADER: usize = 4 + 1 + 8 + 4;

/// Aggregation knobs, resolved per link by the mesh configuration.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct AggTuning {
    /// Initial aggregation window in microseconds. `0` disables
    /// aggregation entirely (every `Data` frame departs immediately).
    pub window_us: u64,
    /// Lower window bound for the SAAW walk (µs).
    pub min_window_us: u64,
    /// Upper window bound for the SAAW walk (µs).
    pub max_window_us: u64,
    /// Adapt the window with [`SaawLaw`] (`true`) or hold it fixed at
    /// `window_us` (`false`).
    pub adapt: bool,
    /// Hard ceiling on entries per batch (safety valve independent of
    /// the byte cap).
    pub max_batch: usize,
    /// The mesh frame cap a flushed batch must stay under (encoded
    /// bytes, including the length prefix).
    pub max_frame_bytes: usize,
}

impl AggTuning {
    /// A window/bounds/cap tuning with adaptation on and the default
    /// batch ceiling.
    pub fn new(window_us: u64, min_window_us: u64, max_window_us: u64) -> Self {
        AggTuning {
            window_us,
            min_window_us,
            max_window_us,
            adapt: true,
            max_batch: 512,
            max_frame_bytes: crate::frame::MAX_FRAME_BYTES,
        }
    }

    /// Is aggregation active at all?
    pub fn enabled(&self) -> bool {
        self.window_us > 0
    }
}

impl Default for AggTuning {
    /// Disabled: a zero window short-circuits every frame straight
    /// through.
    fn default() -> Self {
        AggTuning {
            window_us: 0,
            min_window_us: 50,
            max_window_us: 20_000,
            adapt: true,
            max_batch: 512,
            max_frame_bytes: crate::frame::MAX_FRAME_BYTES,
        }
    }
}

/// Why a pending aggregate departed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushCause {
    /// The window aged out.
    Expiry,
    /// A control/GVT-critical frame needed the link (FIFO preservation).
    Critical,
    /// The byte cap or `max_batch` ceiling was reached.
    Cap,
    /// Link shutdown drained the residue.
    Close,
}

/// Per-link aggregation gauges, updated on every flush and readable
/// while the link is live (the mesh publishes them through an
/// `Arc<Mutex<_>>`). Serializable so they ride `WorkerReport` /
/// `RunReport` unchanged.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct LinkAggStats {
    /// Peer process id this link talks to.
    pub peer: u32,
    /// `Data` frames offered to the aggregator (batched or not).
    pub frames_offered: u64,
    /// Frames that physically departed (`Data` + `DataBatch` count).
    pub frames_sent: u64,
    /// Wire frames avoided by coalescing: `frames_offered -
    /// frames_sent` for the aggregated portion.
    pub frames_saved: u64,
    /// Flushes that carried ≥ 2 entries.
    pub batches: u64,
    /// Entries carried by those multi-entry batches.
    pub batched_entries: u64,
    /// Flush-cause counters.
    pub flush_expiry: u64,
    /// See [`FlushCause::Critical`].
    pub flush_critical: u64,
    /// See [`FlushCause::Cap`].
    pub flush_cap: u64,
    /// See [`FlushCause::Close`].
    pub flush_close: u64,
    /// Current aggregation window (µs); 0 when aggregation is off.
    pub window_us: u64,
    /// Every SAAW window move as `(old_us, new_us)`, in order — the
    /// raw material for `Param::AggWindow` control events.
    pub window_moves: Vec<(u64, u64)>,
}

impl LinkAggStats {
    /// Mean entries per multi-entry batch (1.0 when nothing batched).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.batched_entries as f64 / self.batches as f64
        }
    }

    /// Fold another link's gauges into this one (for cluster-level
    /// aggregation in `RunReport`).
    pub fn merge(&mut self, other: &LinkAggStats) {
        self.frames_offered += other.frames_offered;
        self.frames_sent += other.frames_sent;
        self.frames_saved += other.frames_saved;
        self.batches += other.batches;
        self.batched_entries += other.batched_entries;
        self.flush_expiry += other.flush_expiry;
        self.flush_critical += other.flush_critical;
        self.flush_cap += other.flush_cap;
        self.flush_close += other.flush_close;
        self.window_us = self.window_us.max(other.window_us);
        self.window_moves.extend(other.window_moves.iter().copied());
    }
}

/// One buffered outbound `Data` frame.
struct Entry {
    epoch: u32,
    msg: crate::aggregate::PhysMsg,
}

/// The per-link aggregation engine. Owned by the link's writer thread;
/// publishes gauges through a shared handle so the executive can read
/// them mid-run.
pub struct LinkAggregator {
    tuning: AggTuning,
    law: Option<SaawLaw>,
    window: Duration,
    pending: Vec<Entry>,
    pending_bytes: usize,
    opened_at: Option<Instant>,
    stats: Arc<Mutex<LinkAggStats>>,
}

impl LinkAggregator {
    /// A fresh aggregator for the link to `peer`.
    pub fn new(peer: u32, tuning: AggTuning) -> Self {
        let law = (tuning.enabled() && tuning.adapt).then(|| {
            SaawLaw::new(
                tuning.window_us as f64 * 1e-6,
                tuning.min_window_us.max(1) as f64 * 1e-6,
                tuning.max_window_us.max(tuning.min_window_us.max(1)) as f64 * 1e-6,
            )
        });
        let stats = Arc::new(Mutex::new(LinkAggStats {
            peer,
            window_us: tuning.window_us,
            ..LinkAggStats::default()
        }));
        LinkAggregator {
            window: Duration::from_micros(tuning.window_us),
            tuning,
            law,
            pending: Vec::new(),
            pending_bytes: 0,
            opened_at: None,
            stats,
        }
    }

    /// Shared handle to this link's gauges.
    pub fn stats(&self) -> Arc<Mutex<LinkAggStats>> {
        Arc::clone(&self.stats)
    }

    /// Exact encoded size of `(epoch, msg)` as one `DataBatch` entry:
    /// the fixed 16-byte header (epoch/src/dst/count) plus the events'
    /// canonical wire bytes (computed, not encoded — the Pod envelope
    /// has a fixed size).
    fn entry_size(msg: &crate::aggregate::PhysMsg) -> usize {
        16 + msg
            .events
            .iter()
            .map(warp_core::wire::encoded_event_len)
            .sum::<usize>()
    }

    /// Stage an outbound frame. Returns the frames that must depart
    /// *now*, in order. `Data` frames may be absorbed (empty return);
    /// anything else flushes pending data first and then passes
    /// through, preserving per-link FIFO exactly.
    pub fn offer(&mut self, frame: Frame, now: Instant) -> Vec<Frame> {
        if !self.tuning.enabled() {
            return vec![frame];
        }
        match frame {
            Frame::Data { epoch, msg, .. } => {
                let entry_bytes = Self::entry_size(&msg);
                let mut out = Vec::new();
                // Would this entry push the encoded batch over the
                // receiver's cap? Flush what's pending first. A lone
                // oversized entry departs as a plain `Data` frame —
                // the same bytes the unaggregated path would send.
                let projected = BATCH_HEADER + self.pending_bytes + entry_bytes;
                if !self.pending.is_empty()
                    && (projected > self.tuning.max_frame_bytes
                        || self.pending.len() >= self.tuning.max_batch)
                {
                    out.extend(self.flush(FlushCause::Cap, now));
                }
                self.stats.lock().unwrap().frames_offered += 1;
                if self.pending.is_empty() {
                    self.opened_at = Some(now);
                }
                self.pending_bytes += entry_bytes;
                self.pending.push(Entry { epoch, msg });
                // A single entry already at/over the cap can't wait for
                // a sibling; send it alone immediately.
                if DATA_HEADER + 4 + self.pending_bytes >= self.tuning.max_frame_bytes {
                    out.extend(self.flush(FlushCause::Cap, now));
                }
                out
            }
            // Heartbeats only probe liveness; they neither flush nor
            // get delayed.
            Frame::Heartbeat => vec![frame],
            other => {
                let mut out = self.flush(FlushCause::Critical, now);
                out.push(other);
                out
            }
        }
    }

    /// Flush if the window has aged out. Drive this from the link's
    /// wakeup machinery (the writer's `recv_timeout`).
    pub fn poll_expired(&mut self, now: Instant) -> Vec<Frame> {
        match self.opened_at {
            Some(t) if now.duration_since(t) >= self.window => self.flush(FlushCause::Expiry, now),
            _ => Vec::new(),
        }
    }

    /// Drain everything unconditionally (link shutdown).
    pub fn close(&mut self, now: Instant) -> Vec<Frame> {
        self.flush(FlushCause::Close, now)
    }

    /// The instant the current aggregate must depart, if one is open.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.opened_at.map(|t| t + self.window)
    }

    /// Anything buffered?
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    fn flush(&mut self, cause: FlushCause, now: Instant) -> Vec<Frame> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let n = self.pending.len();
        let age = self
            .opened_at
            .map(|t| now.duration_since(t).as_secs_f64())
            .unwrap_or(0.0);
        let entries: Vec<Entry> = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        self.opened_at = None;

        // Feed the achieved (size, age) back into the SAAW law; every
        // window move is recorded for the control trajectory.
        let mut st = self.stats.lock().unwrap();
        if let Some(law) = self.law.as_mut() {
            let next = Duration::from_secs_f64(law.on_aggregate_sent(n, age));
            if next != self.window {
                let old_us = self.window.as_micros() as u64;
                let new_us = next.as_micros() as u64;
                st.window_moves.push((old_us, new_us));
                st.window_us = new_us;
                self.window = next;
            }
        }
        st.frames_sent += 1;
        st.frames_saved += (n as u64).saturating_sub(1);
        match cause {
            FlushCause::Expiry => st.flush_expiry += 1,
            FlushCause::Critical => st.flush_critical += 1,
            FlushCause::Cap => st.flush_cap += 1,
            FlushCause::Close => st.flush_close += 1,
        }
        if n >= 2 {
            st.batches += 1;
            st.batched_entries += n as u64;
        }
        drop(st);

        if n == 1 {
            let e = entries.into_iter().next().unwrap();
            // Seq 0: the link writer stamps the real per-link sequence
            // at staging time, exactly as for un-aggregated sends.
            vec![Frame::Data {
                seq: 0,
                epoch: e.epoch,
                msg: e.msg,
            }]
        } else {
            vec![Frame::DataBatch {
                seq: 0,
                entries: entries.into_iter().map(|e| (e.epoch, e.msg)).collect(),
            }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::PhysMsg;
    use warp_core::event::EventId;
    use warp_core::{Event, LpId, ObjectId, VirtualTime};

    fn msg(serial: u64, payload: usize) -> PhysMsg {
        PhysMsg {
            src: LpId(1),
            dst: LpId(2),
            events: vec![Event::new(
                EventId {
                    sender: ObjectId(1),
                    serial,
                },
                ObjectId(2),
                VirtualTime::new(1),
                VirtualTime::new(serial + 10),
                0,
                vec![0xAB; payload],
            )],
        }
    }

    fn data(serial: u64, payload: usize) -> Frame {
        Frame::Data {
            seq: 0,
            epoch: 1,
            msg: msg(serial, payload),
        }
    }

    fn tuning(window_us: u64) -> AggTuning {
        AggTuning {
            window_us,
            min_window_us: 50,
            max_window_us: 50_000,
            adapt: false,
            max_batch: 512,
            max_frame_bytes: crate::frame::MAX_FRAME_BYTES,
        }
    }

    #[test]
    fn zero_window_passes_everything_through() {
        let mut agg = LinkAggregator::new(1, AggTuning::default());
        let now = Instant::now();
        assert_eq!(agg.offer(data(1, 4), now), vec![data(1, 4)]);
        assert!(agg.is_idle());
        assert_eq!(agg.next_deadline(), None);
    }

    #[test]
    fn window_expiry_flushes_a_batch() {
        let mut agg = LinkAggregator::new(1, tuning(1_000));
        let t0 = Instant::now();
        assert!(agg.offer(data(1, 4), t0).is_empty());
        assert!(agg.offer(data(2, 4), t0).is_empty());
        assert!(agg.poll_expired(t0).is_empty(), "window not aged yet");
        let out = agg.poll_expired(t0 + Duration::from_micros(1_500));
        assert_eq!(out.len(), 1);
        match &out[0] {
            Frame::DataBatch { entries, .. } => assert_eq!(entries.len(), 2),
            other => panic!("expected DataBatch, got {other:?}"),
        }
        let st = agg.stats();
        let st = st.lock().unwrap();
        assert_eq!(st.flush_expiry, 1);
        assert_eq!(st.frames_saved, 1);
        assert_eq!(st.frames_offered, 2);
        assert_eq!(st.frames_sent, 1);
    }

    #[test]
    fn singleton_flush_degrades_to_plain_data() {
        let mut agg = LinkAggregator::new(1, tuning(1_000));
        let t0 = Instant::now();
        assert!(agg.offer(data(7, 4), t0).is_empty());
        let out = agg.poll_expired(t0 + Duration::from_millis(2));
        assert_eq!(out, vec![data(7, 4)]);
    }

    #[test]
    fn control_frame_flushes_pending_first_preserving_fifo() {
        let mut agg = LinkAggregator::new(1, tuning(1_000_000));
        let t0 = Instant::now();
        assert!(agg.offer(data(1, 4), t0).is_empty());
        let out = agg.offer(Frame::Bye, t0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], data(1, 4), "pending data departs first");
        assert_eq!(out[1], Frame::Bye);
        let st = agg.stats();
        assert_eq!(st.lock().unwrap().flush_critical, 1);
    }

    #[test]
    fn heartbeat_neither_flushes_nor_delays() {
        let mut agg = LinkAggregator::new(1, tuning(1_000_000));
        let t0 = Instant::now();
        assert!(agg.offer(data(1, 4), t0).is_empty());
        assert_eq!(agg.offer(Frame::Heartbeat, t0), vec![Frame::Heartbeat]);
        assert!(!agg.is_idle(), "data still buffered");
    }

    /// Regression (satellite): a flush must never emit a frame the
    /// receiver's cap would reject — batches split at the byte cap.
    #[test]
    fn batches_split_at_the_frame_cap() {
        let mut t = tuning(1_000_000);
        t.max_frame_bytes = 600;
        let mut agg = LinkAggregator::new(1, t);
        let t0 = Instant::now();
        let mut departed = Vec::new();
        for s in 0..40 {
            departed.extend(agg.offer(data(s, 64), t0));
        }
        departed.extend(agg.close(t0));
        assert!(departed.len() >= 2, "cap must have forced splits");
        let mut total_entries = 0;
        for f in &departed {
            let encoded = f.encode();
            assert!(
                encoded.len() <= 600,
                "flush emitted {} bytes over the 600-byte cap",
                encoded.len()
            );
            // And the peer's decoder (limit = cap) really accepts it.
            let mut d = crate::frame::FrameDecoder::with_limit(600);
            d.push(&encoded);
            match d.next().unwrap().unwrap() {
                Frame::DataBatch { entries, .. } => total_entries += entries.len(),
                Frame::Data { .. } => total_entries += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(total_entries, 40, "no entry lost or duplicated");
        let st = agg.stats();
        assert!(st.lock().unwrap().flush_cap >= 1);
    }

    /// An entry that alone busts the cap departs immediately as plain
    /// `Data` — the same bytes the unaggregated path would send (the
    /// decoder's verdict on them is the sender's configuration problem,
    /// not the aggregator's).
    #[test]
    fn oversized_single_entry_departs_alone() {
        let mut t = tuning(1_000_000);
        t.max_frame_bytes = 256;
        let mut agg = LinkAggregator::new(1, t);
        let t0 = Instant::now();
        let out = agg.offer(data(1, 1024), t0);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Frame::Data { .. }));
        assert!(agg.is_idle());
    }

    #[test]
    fn max_batch_ceiling_forces_a_flush() {
        let mut t = tuning(1_000_000);
        t.max_batch = 3;
        let mut agg = LinkAggregator::new(1, t);
        let t0 = Instant::now();
        let mut departed = Vec::new();
        for s in 0..7 {
            departed.extend(agg.offer(data(s, 4), t0));
        }
        departed.extend(agg.close(t0));
        for f in &departed {
            if let Frame::DataBatch { entries, .. } = f {
                assert!(entries.len() <= 3);
            }
        }
        let n: usize = departed
            .iter()
            .map(|f| match f {
                Frame::DataBatch { entries, .. } => entries.len(),
                Frame::Data { .. } => 1,
                _ => 0,
            })
            .sum();
        assert_eq!(n, 7);
    }

    #[test]
    fn saaw_moves_land_in_the_gauges() {
        let mut t = tuning(1_000);
        t.adapt = true;
        let mut agg = LinkAggregator::new(3, t);
        let t0 = Instant::now();
        let mut now = t0;
        for round in 0..20 {
            for s in 0..4 {
                let _ = agg.offer(data(round * 4 + s, 4), now);
            }
            now += Duration::from_micros(2_000);
            let _ = agg.poll_expired(now);
        }
        let st = agg.stats();
        let st = st.lock().unwrap();
        assert!(
            !st.window_moves.is_empty(),
            "SAAW never moved the window: {st:?}"
        );
        assert_eq!(st.peer, 3);
        // The live gauge tracks the last move.
        assert_eq!(st.window_us, st.window_moves.last().unwrap().1);
    }

    #[test]
    fn entry_size_is_exact() {
        // The projected batch size arithmetic must match the encoder
        // byte-for-byte, or cap splitting drifts.
        let msgs = [msg(1, 0), msg(2, 7), msg(3, 333)];
        let entries: Vec<(u32, PhysMsg)> = msgs.iter().map(|m| (9, m.clone())).collect();
        let encoded = Frame::DataBatch {
            seq: 1,
            entries: entries.clone(),
        }
        .encode();
        let predicted = BATCH_HEADER + msgs.iter().map(LinkAggregator::entry_size).sum::<usize>();
        assert_eq!(encoded.len(), predicted);
    }
}
