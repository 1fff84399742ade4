//! Dynamic Message Aggregation (DyMA): the communication-layer
//! optimization of Section 6.
//!
//! Every application message incurs a large fixed overhead on the
//! paper's 10 Mb Ethernet regardless of size, so the communication module
//! of each LP collects events destined to the same LP that occur in close
//! temporal proximity and ships them as a single *physical message*. The
//! aggregation policy (see [`crate::policy`]) balances the gain from
//! aggregating more events (AOF) against the harm of delaying them (APF).
//!
//! Anti-messages flush their bucket immediately: delaying a cancellation
//! prolongs erroneous computation at the receiver, and flushing the whole
//! bucket (rather than just the anti) preserves per-pair FIFO order.

use crate::policy::{AggregationConfig, BucketPolicy};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use warp_core::stats::CommStats;
use warp_core::{CostModel, Event, LpId};

/// A physical message: one or more events between an LP pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysMsg {
    /// Sending logical process.
    pub src: LpId,
    /// Receiving logical process.
    pub dst: LpId,
    /// The aggregated application events, in send order.
    pub events: EventBatch,
}

/// The events of a [`PhysMsg`]: a lone event stored in place, two or
/// more in one heap block. An unaggregated message — every message under
/// the default configuration — therefore allocates nothing from the
/// sender's [`Aggregator`] to the receiver's `deliver`, and no LP thread
/// frees a block another thread allocated. It reads as an `[Event]`
/// ([`Deref`](core::ops::Deref)) and iterates by value; equality is
/// slice equality, whichever way the events are stored.
#[derive(Clone)]
pub struct EventBatch(Repr);

#[derive(Clone)]
enum Repr {
    One(Event),
    /// None, or two and more.
    Many(Vec<Event>),
}

impl EventBatch {
    /// The empty batch.
    pub const fn new() -> Self {
        EventBatch(Repr::Many(Vec::new()))
    }

    /// A batch of one event, in place.
    pub fn one(ev: Event) -> Self {
        EventBatch(Repr::One(ev))
    }

    /// Whether the events are stored in place (no heap block).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::One(_))
    }
}

impl Default for EventBatch {
    fn default() -> Self {
        EventBatch::new()
    }
}

impl core::ops::Deref for EventBatch {
    type Target = [Event];
    #[inline]
    fn deref(&self) -> &[Event] {
        match &self.0 {
            Repr::One(ev) => core::slice::from_ref(ev),
            Repr::Many(v) => v,
        }
    }
}

impl FromIterator<Event> for EventBatch {
    /// A lone event stays in place; two or more go to one heap block,
    /// sized by the iterator's hint (exact for a `drain`).
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return EventBatch::new();
        };
        let Some(second) = iter.next() else {
            return EventBatch::one(first);
        };
        let mut v = Vec::with_capacity(2 + iter.size_hint().0);
        v.push(first);
        v.push(second);
        v.extend(iter);
        EventBatch(Repr::Many(v))
    }
}

impl From<Vec<Event>> for EventBatch {
    /// A lone event is moved in place (and the block freed); any other
    /// count keeps the vector as it is.
    fn from(mut v: Vec<Event>) -> Self {
        match v.len() {
            1 => EventBatch::one(v.pop().expect("one event")),
            _ => EventBatch(Repr::Many(v)),
        }
    }
}

impl PartialEq for EventBatch {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for EventBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<'a> IntoIterator for &'a EventBatch {
    type Item = &'a Event;
    type IntoIter = core::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for EventBatch {
    type Item = Event;
    /// The lone event, or the block's events: one half is always empty.
    type IntoIter = core::iter::Chain<core::option::IntoIter<Event>, std::vec::IntoIter<Event>>;
    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self.0 {
            Repr::One(ev) => (Some(ev), Vec::new()),
            Repr::Many(v) => (None, v),
        };
        one.into_iter().chain(many)
    }
}

impl PhysMsg {
    /// Total payload bytes (event envelopes + payloads; the transport
    /// header is added by the cost model).
    pub fn payload_bytes(&self) -> usize {
        self.events.iter().map(Event::size_bytes).sum()
    }

    /// Earliest receive timestamp carried — the message's contribution to
    /// GVT while in flight.
    pub fn min_recv_time(&self) -> warp_core::VirtualTime {
        self.events.iter().map(|e| e.recv_time).fold(
            warp_core::VirtualTime::INFINITY,
            warp_core::VirtualTime::min,
        )
    }

    /// Sender-side CPU charge for this message.
    pub fn send_cost(&self, cost: &CostModel) -> f64 {
        cost.phys_send_cost(self.payload_bytes())
    }

    /// Receiver-side CPU charge for this message.
    pub fn recv_cost(&self, cost: &CostModel) -> f64 {
        cost.phys_recv_cost(self.payload_bytes())
    }

    /// Wire transit time for this message, including the deterministic
    /// contention jitter keyed on the first carried event's identity.
    pub fn transit_time(&self, cost: &CostModel) -> f64 {
        let salt = self
            .events
            .first()
            .map(|e| {
                (e.id.sender.0 as u64) << 32
                    ^ e.id.serial.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (e.sign == warp_core::Sign::Anti) as u64
            })
            .unwrap_or(0);
        cost.transit_time_jittered(self.payload_bytes(), salt)
    }
}

#[derive(Debug)]
struct Bucket {
    policy: BucketPolicy,
    events: Vec<Event>,
    /// Real (modeled) time the oldest buffered event entered the bucket.
    opened_at: f64,
}

impl Bucket {
    /// The instant this bucket becomes due. Computed in exactly one place
    /// so the scheduling (`next_deadline`) and flushing (`poll`/`offer`)
    /// decisions can never disagree by a floating-point rounding step —
    /// an executive that wakes *at* the deadline must observe it as due.
    fn deadline(&self) -> f64 {
        self.opened_at + self.policy.window()
    }
}

/// The per-LP aggregation layer: buffers outgoing events per destination
/// LP and emits physical messages per the configured policy.
///
/// Time is the executive's real-time axis (modeled seconds in the virtual
/// cluster, wall-clock seconds in the threaded executive), passed in as
/// `now` — the layer never reads a clock itself, which keeps it
/// deterministic and testable.
#[derive(Debug)]
pub struct Aggregator {
    src: LpId,
    config: AggregationConfig,
    buckets: BTreeMap<LpId, Bucket>,
    stats: CommStats,
    /// Telemetry: `(dst, old window, new window)` per SAAW adjustment
    /// since the last drain. Only filled once recording is switched on;
    /// purely observational either way.
    window_log: Vec<(LpId, f64, f64)>,
    record_windows: bool,
}

impl Aggregator {
    /// Aggregation layer for LP `src` under the given policy.
    pub fn new(src: LpId, config: AggregationConfig) -> Self {
        Aggregator {
            src,
            config,
            buckets: BTreeMap::new(),
            stats: CommStats::default(),
            window_log: Vec::new(),
            record_windows: false,
        }
    }

    /// Switch telemetry recording of window adjustments on or off.
    pub fn set_record_windows(&mut self, on: bool) {
        self.record_windows = on;
    }

    /// Drain the `(dst, old, new)` window adjustments recorded since the
    /// last call.
    pub fn take_window_changes(&mut self) -> Vec<(LpId, f64, f64)> {
        std::mem::take(&mut self.window_log)
    }

    /// The configured policy (for reports).
    pub fn config(&self) -> &AggregationConfig {
        &self.config
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Offer one outgoing event at time `now`; any physical messages that
    /// become due (including by this event's arrival) are appended to
    /// `out`.
    pub fn offer(&mut self, dst: LpId, ev: Event, now: f64, out: &mut Vec<PhysMsg>) {
        self.stats.events_offered += 1;
        let is_anti = ev.is_anti();
        let config = &self.config;
        let bucket = self.buckets.entry(dst).or_insert_with(|| Bucket {
            policy: config.build(),
            events: Vec::new(),
            opened_at: now,
        });
        if bucket.events.is_empty() {
            bucket.opened_at = now;
        }
        bucket.events.push(ev);
        let due = is_anti || now >= bucket.deadline();
        if due {
            self.flush_bucket(dst, now, out);
        }
    }

    /// The earliest future instant at which a bucket becomes due, if any
    /// bucket is non-empty. The executive schedules a poll at this time.
    pub fn next_deadline(&self) -> Option<f64> {
        self.buckets
            .values()
            .filter(|b| !b.events.is_empty())
            .map(Bucket::deadline)
            .min_by(|a, b| a.partial_cmp(b).expect("deadlines are finite"))
    }

    /// Flush every bucket whose deadline has passed at `now`.
    pub fn poll(&mut self, now: f64, out: &mut Vec<PhysMsg>) {
        self.flush_where(now, out, |b| now >= b.deadline());
    }

    /// Flush everything regardless of age (termination, GVT barrier).
    pub fn flush_all(&mut self, now: f64, out: &mut Vec<PhysMsg>) {
        self.flush_where(now, out, |_| true);
    }

    /// Buffered events not yet shipped (diagnostics, GVT accounting).
    pub fn buffered(&self) -> usize {
        self.buckets.values().map(|b| b.events.len()).sum()
    }

    /// Earliest receive timestamp among buffered events: buffered events
    /// are "in transit" for GVT purposes and must bound it.
    pub fn buffered_min_time(&self) -> warp_core::VirtualTime {
        self.buckets
            .values()
            .flat_map(|b| b.events.iter())
            .map(|e| e.recv_time)
            .fold(
                warp_core::VirtualTime::INFINITY,
                warp_core::VirtualTime::min,
            )
    }

    /// Record receiver-side statistics for an incoming physical message.
    pub fn note_received(&mut self, msg: &PhysMsg, cost: &CostModel) {
        self.stats.phys_received += 1;
        self.stats.events_received += msg.events.len() as u64;
        self.stats.cost_recv += msg.recv_cost(cost);
    }

    /// Record sender-side protocol-stack CPU for an outgoing message
    /// (the executive charges the node clock; this mirrors it into the
    /// communication statistics).
    pub fn note_send_cost(&mut self, c: f64) {
        self.stats.cost_send += c;
    }

    /// Flush, in destination order, every non-empty bucket `due` picks.
    /// A cursor over the map, not a list of keys: a poll allocates
    /// nothing.
    fn flush_where(&mut self, now: f64, out: &mut Vec<PhysMsg>, due: impl Fn(&Bucket) -> bool) {
        let mut from = Bound::Unbounded;
        while let Some(dst) = self
            .buckets
            .range((from, Bound::Unbounded))
            .find(|(_, b)| !b.events.is_empty() && due(b))
            .map(|(&dst, _)| dst)
        {
            self.flush_bucket(dst, now, out);
            from = Bound::Excluded(dst);
        }
    }

    /// Ship `dst`'s bucket as one physical message. The bucket keeps its
    /// capacity: a lone event moves into the message, two or more into
    /// one block of their exact size.
    fn flush_bucket(&mut self, dst: LpId, now: f64, out: &mut Vec<PhysMsg>) {
        let bucket = self
            .buckets
            .get_mut(&dst)
            .expect("flushing a missing bucket");
        if bucket.events.is_empty() {
            return;
        }
        let events: EventBatch = bucket.events.drain(..).collect();
        let n = events.len();
        let age = (now - bucket.opened_at).max(0.0);
        let before = bucket.policy.window();
        let (after, adjusted) = bucket.policy.on_aggregate_sent(n, age);
        if adjusted {
            self.stats.window_adjustments += 1;
            if self.record_windows {
                self.window_log.push((dst, before, after));
            }
        }
        let msg = PhysMsg {
            src: self.src,
            dst,
            events,
        };
        self.stats.phys_sent += 1;
        self.stats.bytes_sent += msg.payload_bytes() as u64;
        out.push(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::event::EventId;
    use warp_core::{ObjectId, VirtualTime};

    fn ev(serial: u64, rt: u64) -> Event {
        Event::new(
            EventId {
                sender: ObjectId(0),
                serial,
            },
            ObjectId(9),
            VirtualTime::ZERO,
            VirtualTime::new(rt),
            0,
            vec![0; 8],
        )
    }

    const DST: LpId = LpId(1);

    #[test]
    fn unaggregated_ships_every_event() {
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Unaggregated);
        let mut out = Vec::new();
        for s in 0..5 {
            agg.offer(DST, ev(s, 10), s as f64 * 1e-4, &mut out);
        }
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|m| m.events.len() == 1));
        assert_eq!(agg.stats().phys_sent, 5);
        assert_eq!(agg.stats().events_offered, 5);
        assert_eq!(agg.next_deadline(), None);
    }

    #[test]
    fn faw_holds_until_first_message_ages_out() {
        let w = 1e-3;
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Faw { window: w });
        let mut out = Vec::new();
        agg.offer(DST, ev(0, 10), 0.0, &mut out);
        agg.offer(DST, ev(1, 11), 0.2e-3, &mut out);
        agg.offer(DST, ev(2, 12), 0.4e-3, &mut out);
        assert!(out.is_empty(), "window not reached");
        assert_eq!(agg.buffered(), 3);
        assert_eq!(agg.next_deadline(), Some(w));
        // An event arriving at/after the deadline flushes the bucket.
        agg.offer(DST, ev(3, 13), 1.1e-3, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].events.len(), 4);
        assert_eq!(agg.buffered(), 0);
    }

    #[test]
    fn poll_flushes_due_buckets_without_new_traffic() {
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Faw { window: 1e-3 });
        let mut out = Vec::new();
        agg.offer(DST, ev(0, 10), 0.0, &mut out);
        agg.offer(LpId(2), ev(1, 20), 0.5e-3, &mut out);
        agg.poll(1.0e-3, &mut out);
        assert_eq!(out.len(), 1, "only the first bucket is due");
        agg.poll(1.5e-3, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn anti_message_flushes_bucket_preserving_order() {
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Faw { window: 1.0 });
        let mut out = Vec::new();
        agg.offer(DST, ev(0, 10), 0.0, &mut out);
        agg.offer(DST, ev(1, 12), 0.0, &mut out);
        let anti = ev(0, 10).to_anti();
        agg.offer(DST, anti.clone(), 0.0, &mut out);
        assert_eq!(out.len(), 1, "anti flushes immediately");
        assert_eq!(out[0].events.len(), 3);
        assert_eq!(out[0].events[2], anti, "order preserved");
    }

    #[test]
    fn buckets_are_per_destination() {
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Faw { window: 1e-3 });
        let mut out = Vec::new();
        agg.offer(LpId(1), ev(0, 10), 0.0, &mut out);
        agg.offer(LpId(2), ev(1, 10), 0.0, &mut out);
        assert_eq!(agg.buffered(), 2);
        agg.flush_all(0.1e-3, &mut out);
        assert_eq!(out.len(), 2);
        let dsts: Vec<LpId> = out.iter().map(|m| m.dst).collect();
        assert!(dsts.contains(&LpId(1)) && dsts.contains(&LpId(2)));
    }

    #[test]
    fn saaw_adapts_window_across_aggregates() {
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::saaw(1e-3));
        let mut out = Vec::new();
        // Slow trickle, then a burst: SAAW should register adjustments.
        let mut t = 0.0;
        for round in 0..6 {
            let n = if round % 2 == 0 { 2 } else { 12 };
            for s in 0..n {
                agg.offer(DST, ev(round * 100 + s, 10), t, &mut out);
                t += 1e-4;
            }
            t += 2e-3; // let the bucket age out
            agg.poll(t, &mut out);
        }
        assert!(agg.stats().window_adjustments > 0, "SAAW never adapted");
        assert!(agg.stats().phys_sent > 0);
    }

    #[test]
    fn window_changes_are_logged_only_when_recording() {
        let drive = |record: bool| {
            let mut agg = Aggregator::new(LpId(0), AggregationConfig::saaw(1e-3));
            agg.set_record_windows(record);
            let mut out = Vec::new();
            let mut t = 0.0;
            for round in 0..6 {
                let n = if round % 2 == 0 { 2 } else { 12 };
                for s in 0..n {
                    agg.offer(DST, ev(round * 100 + s, 10), t, &mut out);
                    t += 1e-4;
                }
                t += 2e-3;
                agg.poll(t, &mut out);
            }
            agg
        };
        let mut loud = drive(true);
        let adjustments = loud.stats().window_adjustments;
        let log = loud.take_window_changes();
        assert_eq!(log.len() as u64, adjustments);
        assert!(log.iter().all(|(d, old, new)| *d == DST && old != new));
        assert!(loud.take_window_changes().is_empty(), "drain empties");
        let mut quiet = drive(false);
        assert_eq!(quiet.stats().window_adjustments, adjustments);
        assert!(quiet.take_window_changes().is_empty(), "off by default");
    }

    #[test]
    fn buffered_min_time_bounds_gvt() {
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Faw { window: 1.0 });
        let mut out = Vec::new();
        assert_eq!(agg.buffered_min_time(), VirtualTime::INFINITY);
        agg.offer(DST, ev(0, 42), 0.0, &mut out);
        agg.offer(DST, ev(1, 17), 0.0, &mut out);
        assert_eq!(agg.buffered_min_time(), VirtualTime::new(17));
    }

    #[test]
    fn a_message_holds_its_lone_event_in_place() {
        // The batch is no larger than the event it holds in place; the
        // message adds the two LP ids.
        assert_eq!(
            std::mem::size_of::<EventBatch>(),
            std::mem::size_of::<Event>()
        );
        assert_eq!(std::mem::size_of::<PhysMsg>(), 88);
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Unaggregated);
        let mut out = Vec::new();
        agg.offer(DST, ev(0, 10), 0.0, &mut out);
        assert!(out[0].events.is_inline());
        assert_eq!(*out[0].events, [ev(0, 10)]);
    }

    #[test]
    fn poll_and_flush_all_ship_in_destination_order() {
        let mut agg = Aggregator::new(LpId(0), AggregationConfig::Faw { window: 1e-3 });
        let mut out = Vec::new();
        for (s, dst) in [3, 1, 2, 1].into_iter().enumerate() {
            agg.offer(LpId(dst), ev(s as u64, 10), 0.0, &mut out);
        }
        agg.offer(LpId(4), ev(9, 10), 0.5e-3, &mut out);
        agg.poll(1e-3, &mut out);
        let shipped = |out: &[PhysMsg]| -> Vec<(u32, usize)> {
            out.iter().map(|m| (m.dst.0, m.events.len())).collect()
        };
        assert_eq!(shipped(&out), [(1, 2), (2, 1), (3, 1)]);
        assert!(!out[0].events.is_inline() && out[1].events.is_inline());
        agg.offer(LpId(2), ev(10, 10), 1e-3, &mut out);
        out.clear();
        agg.flush_all(1e-3, &mut out);
        assert_eq!(shipped(&out), [(2, 1), (4, 1)]);
        assert_eq!(agg.buffered(), 0);
    }

    #[test]
    fn phys_msg_costs_scale_with_content() {
        let cost = CostModel::sparc_now_10mbps();
        let small = PhysMsg {
            src: LpId(0),
            dst: DST,
            events: EventBatch::one(ev(0, 1)),
        };
        let big = PhysMsg {
            src: LpId(0),
            dst: DST,
            events: (0..20).map(|s| ev(s, 1)).collect(),
        };
        assert!(big.payload_bytes() > small.payload_bytes());
        assert!(big.send_cost(&cost) > small.send_cost(&cost));
        assert!(big.transit_time(&cost) > small.transit_time(&cost));
        // But far less than 20× — that is the whole point of DyMA.
        assert!(big.send_cost(&cost) < 3.0 * small.send_cost(&cost));
        assert_eq!(small.min_recv_time(), VirtualTime::new(1));
    }
}
