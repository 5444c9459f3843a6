//! The metrics registry: a fixed schema of counters, gauges and
//! fixed-bucket histograms with `const`-index handles.
//!
//! The schema is deliberately static. Dynamic registration would force
//! either hashing or locking onto the record path; a static table keeps
//! `MetricSet::add` an array index and an integer add, which is what
//! lets the simulator keep its instrumentation on even at million-VP
//! scale.

use std::fmt::Write as _;

/// What a metric's value is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Plain event count.
    Count,
    /// Bytes.
    Bytes,
    /// Virtual nanoseconds.
    Nanos,
}

impl Unit {
    /// Snapshot-schema name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Bytes => "bytes",
            Unit::Nanos => "nanos",
        }
    }
}

/// The shape of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter; `add` accumulates, shards merge by summing.
    Counter,
    /// High-water-mark gauge; `add` and merges keep the maximum.
    Gauge,
    /// Fixed-bucket histogram; `add` observes one sample.
    Histogram,
}

/// One entry of the metric schema.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted snapshot name, `<subsystem>.<metric>`.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Value unit.
    pub unit: Unit,
    /// Upper bucket bounds (inclusive) for histograms; one overflow
    /// bucket is added implicitly. Empty for counters/gauges.
    pub buckets: &'static [u64],
    /// Execution-shape metric: its value depends on worker count,
    /// scheduling or wall-clock timing (engine windows, barrier waits…)
    /// rather than on the simulation alone. Volatile metrics are
    /// excluded from deterministic snapshots (`to_json(None)`) and from
    /// cross-engine equality assertions.
    pub volatile: bool,
}

impl MetricDef {
    /// A monotonic counter.
    pub(crate) const fn counter(name: &'static str, unit: Unit) -> Self {
        MetricDef {
            name,
            kind: MetricKind::Counter,
            unit,
            buckets: &[],
            volatile: false,
        }
    }

    /// A high-water-mark gauge.
    pub(crate) const fn gauge(name: &'static str, unit: Unit) -> Self {
        MetricDef {
            name,
            kind: MetricKind::Gauge,
            unit,
            buckets: &[],
            volatile: false,
        }
    }

    /// A fixed-bucket histogram.
    pub(crate) const fn histogram(name: &'static str, unit: Unit, buckets: &'static [u64]) -> Self {
        MetricDef {
            name,
            kind: MetricKind::Histogram,
            unit,
            buckets,
            volatile: false,
        }
    }

    /// Mark the metric execution-shape-dependent (see the field docs).
    pub(crate) const fn volatile(self) -> Self {
        MetricDef {
            name: self.name,
            kind: self.kind,
            unit: self.unit,
            buckets: self.buckets,
            volatile: true,
        }
    }
}

/// Size buckets (bytes): powers of four from 64 B to 16 MiB.
pub const SIZE_BUCKETS: &[u64] = &[
    64,
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    16 << 20,
];

/// Restore-chain-length buckets: powers of two from 1 to 64 replayed
/// files (a chain longer than 64 means a misconfigured full cadence).
pub(crate) const CHAIN_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// Latency buckets (virtual ns): decades from 1 µs to 100 s.
pub(crate) const LATENCY_BUCKETS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

/// `const` handles into [`SPEC`]. Instrumentation sites use these so the
/// record path is an array index.
pub mod ids {
    /// Eager-protocol messages injected.
    pub const NET_MSGS_EAGER: usize = 0;
    /// Rendezvous-protocol messages injected.
    pub const NET_MSGS_RENDEZVOUS: usize = 1;
    /// Payload bytes over on-chip links.
    pub const NET_BYTES_ONCHIP: usize = 2;
    /// Payload bytes over on-node links.
    pub const NET_BYTES_ONNODE: usize = 3;
    /// Payload bytes over the system interconnect.
    pub const NET_BYTES_SYSTEM: usize = 4;
    /// Requests completed with `MPI_ERR_PROC_FAILED` by the
    /// timeout/monitor failure detector.
    pub const NET_TIMEOUT_DETECTIONS: usize = 5;
    /// Message payload size distribution.
    pub const NET_MSG_BYTES: usize = 6;
    /// High-water mark of any rank's unexpected-message queue.
    pub const MPI_UNEXPECTED_HWM: usize = 7;
    /// File system write operations.
    pub const FS_WRITES: usize = 8;
    /// File system read operations.
    pub const FS_READS: usize = 9;
    /// File system delete operations.
    pub const FS_DELETES: usize = 10;
    /// Injected I/O faults that fired.
    pub const FS_FAULTS_INJECTED: usize = 11;
    /// Write size distribution.
    pub const FS_WRITE_BYTES: usize = 12;
    /// Read size distribution.
    pub const FS_READ_BYTES: usize = 13;
    /// Write latency distribution (virtual ns).
    pub const FS_WRITE_NS: usize = 14;
    /// Read latency distribution (virtual ns).
    pub const FS_READ_NS: usize = 15;
    /// Checkpoints written.
    pub const CKPT_WRITES: usize = 16;
    /// Checkpoint bytes written.
    pub const CKPT_BYTES_WRITTEN: usize = 17;
    /// Checkpoint commit latency distribution (virtual ns).
    pub const CKPT_COMMIT_NS: usize = 18;
    /// Checkpoints successfully loaded on restart.
    pub const CKPT_LOADS: usize = 19;
    /// Corrupted/partial checkpoints discarded during load.
    pub const CKPT_CORRUPT_DISCARDED: usize = 20;
    /// Old checkpoint generations deleted (post-barrier cleanup).
    pub const CKPT_DELETES: usize = 21;
    /// Process-failure notifications broadcast (fault activations seen
    /// by the MPI layer).
    pub const FAULT_ACTIVATIONS: usize = 22;
    /// Soft-error bit flips delivered to applications.
    pub const FAULT_SOFT_FLIPS: usize = 23;
    /// Messages dropped by lossy links (every failed transmission
    /// attempt counts once).
    pub const NET_DROPS: usize = 24;
    /// Retransmissions performed by the resilient transport.
    pub const NET_RETRANSMITS: usize = 25;
    /// Virtual time spent in retransmission backoff.
    pub const NET_BACKOFF_NS: usize = 26;
    /// Extra hops taken by fault-aware rerouting around dead links.
    pub const NET_REROUTED_HOPS: usize = 27;
    /// Extra transfer time attributable to degraded-link bandwidth.
    pub const NET_DEGRADED_NS: usize = 28;
    /// Messages discarded because a lossy link corrupted the payload.
    pub const NET_CORRUPT_DROPS: usize = 29;
    /// Synchronization windows the parallel engine executed (volatile:
    /// depends on worker/shard count and the partition's lookahead).
    pub const ENGINE_WINDOWS: usize = 30;
    /// Wall-clock nanoseconds spent waiting at window barriers
    /// (volatile: wall-clock).
    pub const ENGINE_BARRIER_WAIT_NS: usize = 31;
    /// Cross-shard events delivered through the batched exchange
    /// (volatile: depends on the shard partition).
    pub const ENGINE_BATCHED_EVENTS: usize = 32;
    /// Largest single (src,dst) exchange batch (volatile).
    pub const ENGINE_BATCH_MAX: usize = 33;
    /// Fault-aware route queries answered by the epoch-keyed detour
    /// memo. Only queries whose dimension-ordered path crosses a dead
    /// link reach the memo; the rest are answered by the walk and
    /// counted nowhere. (Volatile: parallel shards race to fill entries,
    /// so the counts — never the routes — vary with scheduling.)
    pub const NET_ROUTE_CACHE_HITS: usize = 34;
    /// Fault-aware route queries that missed the detour memo, ran the
    /// BFS and filled an entry (volatile, see `NET_ROUTE_CACHE_HITS`).
    pub const NET_ROUTE_CACHE_MISSES: usize = 35;
    /// Route-cache entries discarded at a shard capacity bound
    /// (volatile, see `NET_ROUTE_CACHE_HITS`).
    pub const NET_ROUTE_CACHE_EVICTIONS: usize = 36;
    /// Cheap reference-count payload clones on the message path
    /// (collective fan-outs sharing one buffer instead of copying it).
    pub const MPI_PAYLOAD_CLONES: usize = 37;
    /// Bytes actually copied host-side on the message path (collective
    /// packing and typed reduce decode — the copies that remain).
    pub const MPI_PAYLOAD_COPY_BYTES: usize = 38;
    /// Heartbeat messages modeled by the replication layer's failure
    /// detector (team-internal, accounted at finalize from virtual time).
    pub const REP_HEARTBEATS: usize = 39;
    /// Replica deaths detected by the heartbeat detector (one per
    /// observer × dead replica pair).
    pub const REP_DETECTIONS: usize = 40;
    /// Leader failovers: a rank routed a logical channel around a dead
    /// replica that had been its designated copy source.
    pub const REP_FAILOVERS: usize = 41;
    /// Failover latency distribution (virtual ns between a replica's
    /// time of failure and the moment a peer routed around it).
    pub const REP_FAILOVER_NS: usize = 42;
    /// Logical messages sent through the replication layer.
    pub const REP_MSGS: usize = 43;
    /// Physical copies injected for those logical messages (the
    /// replication protocol's message amplification).
    pub const REP_COPIES: usize = 44;
    /// Longest single barrier wait of the run, wall-clock nanoseconds
    /// (volatile: wall-clock).
    pub const ENGINE_BARRIER_HWM_NS: usize = 45;
    /// Event-storage reuse ratio of the calendar queue's bucket arena,
    /// in permille (pushes landing in already-allocated capacity per
    /// 1000 pushes; 1000 = zero steady-state allocation). Volatile:
    /// occupancy history depends on the shard partition and windowing.
    pub const ENGINE_POOL_REUSE_RATIO: usize = 46;
    /// High-water mark of a single calendar-queue bucket (volatile:
    /// bucket occupancy depends on the shard partition).
    pub const ENGINE_QUEUE_BUCKET_HWM: usize = 47;
    /// Stripe requests served by the simulated PFS I/O nodes (one per
    /// involved node per striped transfer).
    pub const FS_STRIPE_REQS: usize = 48;
    /// Bytes landed on PFS I/O nodes by striped transfers.
    pub const FS_STRIPE_BYTES: usize = 49;
    /// Per-request queueing delay at a PFS I/O node before service
    /// starts (virtual ns) — the visible face of I/O contention.
    pub const FS_STRIPE_QUEUE_NS: usize = 50;
    /// Group gathers performed by aggregated-checkpoint aggregators
    /// (one per container file written).
    pub const CKPT_AGG_GATHERS: usize = 51;
    /// Bytes checkpoint group members forwarded to their aggregator.
    pub const CKPT_AGG_FORWARD_BYTES: usize = 52;
    /// Partner copies stored in the node-local tier by buddy
    /// checkpointing.
    pub const CKPT_BUDDY_COPIES: usize = 53;
    /// Buddy checkpoints spilled to the PFS (partnerless rank).
    pub const CKPT_BUDDY_SPILLS: usize = 54;
    /// Dirty blocks carried by incremental (diff) checkpoints.
    pub const CKPT_DIFF_BLOCKS: usize = 55;
    /// Incremental (diff) checkpoint generations written.
    pub const CKPT_DIFF_WRITES: usize = 56;
    /// Restore-chain length distribution: files replayed per restored
    /// rank state (1 = plain full checkpoint, k+1 = full + k diffs).
    pub const CKPT_RESTORE_CHAIN: usize = 57;
    /// Breadth-first route searches the fault table ran, one per memo
    /// miss (volatile, see `NET_ROUTE_CACHE_HITS`).
    pub const NET_ROUTE_BFS_RUNS: usize = 58;
    /// Largest calendar-queue ring of any shard, in buckets (volatile,
    /// like the rest of the queue-shape gauges).
    pub const ENGINE_QUEUE_RING_HWM: usize = 59;
    /// Empty buckets the calendar queues stepped over looking for the
    /// next event (volatile).
    pub const ENGINE_QUEUE_EMPTY_STEPS: usize = 60;
    /// Bulk redistribution passes of the calendar queues: width splits
    /// and lane migrations (volatile).
    pub const ENGINE_QUEUE_REBUILDS: usize = 61;
}

/// The metric schema, indexed by [`ids`].
pub const SPEC: &[MetricDef] = &[
    MetricDef::counter("net.msgs_eager", Unit::Count),
    MetricDef::counter("net.msgs_rendezvous", Unit::Count),
    MetricDef::counter("net.bytes_onchip", Unit::Bytes),
    MetricDef::counter("net.bytes_onnode", Unit::Bytes),
    MetricDef::counter("net.bytes_system", Unit::Bytes),
    MetricDef::counter("net.timeout_detections", Unit::Count),
    MetricDef::histogram("net.msg_bytes", Unit::Bytes, SIZE_BUCKETS),
    MetricDef::gauge("mpi.unexpected_hwm", Unit::Count),
    MetricDef::counter("fs.writes", Unit::Count),
    MetricDef::counter("fs.reads", Unit::Count),
    MetricDef::counter("fs.deletes", Unit::Count),
    MetricDef::counter("fs.faults_injected", Unit::Count),
    MetricDef::histogram("fs.write_bytes", Unit::Bytes, SIZE_BUCKETS),
    MetricDef::histogram("fs.read_bytes", Unit::Bytes, SIZE_BUCKETS),
    MetricDef::histogram("fs.write_ns", Unit::Nanos, LATENCY_BUCKETS),
    MetricDef::histogram("fs.read_ns", Unit::Nanos, LATENCY_BUCKETS),
    MetricDef::counter("ckpt.writes", Unit::Count),
    MetricDef::counter("ckpt.bytes_written", Unit::Bytes),
    MetricDef::histogram("ckpt.commit_ns", Unit::Nanos, LATENCY_BUCKETS),
    MetricDef::counter("ckpt.loads", Unit::Count),
    MetricDef::counter("ckpt.corrupt_discarded", Unit::Count),
    MetricDef::counter("ckpt.deletes", Unit::Count),
    MetricDef::counter("fault.activations", Unit::Count),
    MetricDef::counter("fault.soft_flips", Unit::Count),
    MetricDef::counter("net.drops", Unit::Count),
    MetricDef::counter("net.retransmits", Unit::Count),
    MetricDef::counter("net.backoff_ns", Unit::Nanos),
    MetricDef::counter("net.rerouted_hops", Unit::Count),
    MetricDef::counter("net.degraded_ns", Unit::Nanos),
    MetricDef::counter("net.corrupt_drops", Unit::Count),
    // Engine execution-shape gauges, set once post-run from the
    // SimReport's EngineProfile — volatile by nature (see MetricDef).
    MetricDef::gauge("engine.windows", Unit::Count).volatile(),
    MetricDef::gauge("engine.barrier_wait_ns", Unit::Nanos).volatile(),
    MetricDef::gauge("engine.batched_events", Unit::Count).volatile(),
    MetricDef::gauge("engine.batch_max_events", Unit::Count).volatile(),
    MetricDef::counter("net.route_cache_hits", Unit::Count).volatile(),
    MetricDef::counter("net.route_cache_misses", Unit::Count).volatile(),
    MetricDef::counter("net.route_cache_evictions", Unit::Count).volatile(),
    MetricDef::counter("mpi.payload_clones", Unit::Count),
    MetricDef::counter("mpi.payload_copy_bytes", Unit::Bytes),
    MetricDef::counter("rep.heartbeats", Unit::Count),
    MetricDef::counter("rep.detections", Unit::Count),
    MetricDef::counter("rep.failovers", Unit::Count),
    MetricDef::histogram("rep.failover_ns", Unit::Nanos, LATENCY_BUCKETS),
    MetricDef::counter("rep.logical_msgs", Unit::Count),
    MetricDef::counter("rep.copies", Unit::Count),
    // Data-oriented event-core gauges, set once post-run from the
    // EngineProfile — execution-shape data, volatile like the rest of
    // the engine.* family.
    MetricDef::gauge("engine.window.barrier_wait_hwm_ns", Unit::Nanos).volatile(),
    MetricDef::gauge("engine.pool.reuse_ratio", Unit::Count).volatile(),
    MetricDef::gauge("engine.queue.bucket_hwm", Unit::Count).volatile(),
    // PFS striping + checkpoint-mode metrics. All are deterministic
    // virtual-behavior counts (part of the to_json(None) surface): the
    // stripe queue delays are fixed by the FCFS event order, which the
    // engines reproduce identically.
    MetricDef::counter("fs.stripe.requests", Unit::Count),
    MetricDef::counter("fs.stripe.bytes", Unit::Bytes),
    MetricDef::histogram("fs.stripe.queue_ns", Unit::Nanos, LATENCY_BUCKETS),
    MetricDef::counter("ckpt.mode.agg_gathers", Unit::Count),
    MetricDef::counter("ckpt.mode.agg_forward_bytes", Unit::Bytes),
    MetricDef::counter("ckpt.mode.buddy_copies", Unit::Count),
    MetricDef::counter("ckpt.mode.buddy_spills", Unit::Count),
    MetricDef::counter("ckpt.mode.diff_blocks", Unit::Count),
    MetricDef::counter("ckpt.mode.diff_writes", Unit::Count),
    MetricDef::histogram("ckpt.mode.restore_chain", Unit::Count, CHAIN_BUCKETS),
    MetricDef::counter("net.route_bfs_runs", Unit::Count).volatile(),
    MetricDef::gauge("engine.queue.ring_hwm", Unit::Count).volatile(),
    MetricDef::gauge("engine.queue.empty_steps", Unit::Count).volatile(),
    MetricDef::gauge("engine.queue.rebuilds", Unit::Count).volatile(),
];

/// A filled histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hist {
    /// Per-bucket sample counts; `counts.len() == buckets.len() + 1`
    /// (the last bucket is overflow).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Counter(u64),
    Gauge(u64),
    Hist(Hist),
}

/// One shard's (or the merged) metric storage, laid out per [`SPEC`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSet {
    slots: Vec<Slot>,
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::new()
    }
}

impl MetricSet {
    /// Fresh storage for the standard schema. The only allocation the
    /// registry ever performs — recording never allocates.
    pub fn new() -> Self {
        let slots = SPEC
            .iter()
            .map(|d| match d.kind {
                MetricKind::Counter => Slot::Counter(0),
                MetricKind::Gauge => Slot::Gauge(0),
                MetricKind::Histogram => Slot::Hist(Hist {
                    counts: vec![0; d.buckets.len() + 1],
                    count: 0,
                    sum: 0,
                }),
            })
            .collect();
        MetricSet { slots }
    }

    /// Record `v` against metric `id`: counters accumulate, gauges keep
    /// the maximum, histograms observe one sample.
    #[inline]
    pub fn add(&mut self, id: usize, v: u64) {
        match &mut self.slots[id] {
            Slot::Counter(c) => *c += v,
            Slot::Gauge(g) => *g = (*g).max(v),
            Slot::Hist(h) => {
                let buckets = SPEC[id].buckets;
                let i = buckets.partition_point(|&b| b < v);
                h.counts[i] += 1;
                h.count += 1;
                h.sum += v;
            }
        }
    }

    /// Merge pre-aggregated histogram parts into histogram `id`:
    /// per-bucket counts (`buckets.len() + 1` entries, overflow last)
    /// plus the sample sum. Lets hot paths batch observations in plain
    /// local arrays and land them in one call instead of paying a
    /// registry lookup per sample.
    pub fn add_hist_parts(&mut self, id: usize, counts: &[u64], sum: u64) {
        let Slot::Hist(h) = &mut self.slots[id] else {
            panic!("metric {id} is not a histogram");
        };
        assert_eq!(counts.len(), h.counts.len(), "bucket layout mismatch");
        let mut n = 0u64;
        for (slot, c) in h.counts.iter_mut().zip(counts) {
            *slot += c;
            n += c;
        }
        h.count += n;
        h.sum += sum;
    }

    /// Scalar value of a metric: counter/gauge value, or a histogram's
    /// sample count.
    pub fn value(&self, id: usize) -> u64 {
        match &self.slots[id] {
            Slot::Counter(v) | Slot::Gauge(v) => *v,
            Slot::Hist(h) => h.count,
        }
    }

    /// The histogram behind `id`, if it is one.
    pub fn hist(&self, id: usize) -> Option<&Hist> {
        match &self.slots[id] {
            Slot::Hist(h) => Some(h),
            _ => None,
        }
    }

    /// Merge another shard's storage into this one (counters sum,
    /// gauges max, histograms add elementwise), resetting `other`.
    pub(crate) fn merge_from(&mut self, other: &mut MetricSet) {
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots.iter_mut()) {
            match (mine, theirs) {
                (Slot::Counter(a), Slot::Counter(b)) => {
                    *a += *b;
                    *b = 0;
                }
                (Slot::Gauge(a), Slot::Gauge(b)) => {
                    *a = (*a).max(*b);
                    *b = 0;
                }
                (Slot::Hist(a), Slot::Hist(b)) => {
                    for (x, y) in a.counts.iter_mut().zip(b.counts.iter_mut()) {
                        *x += *y;
                        *y = 0;
                    }
                    a.count += b.count;
                    a.sum += b.sum;
                    b.count = 0;
                    b.sum = 0;
                }
                _ => unreachable!("schema-aligned slot kinds"),
            }
        }
    }

    /// Whether any metric recorded anything.
    pub(crate) fn any_activity(&self) -> bool {
        self.slots.iter().any(|s| match s {
            Slot::Counter(v) | Slot::Gauge(v) => *v != 0,
            Slot::Hist(h) => h.count != 0,
        })
    }

    /// Append the `"metrics"` JSON object (name → typed value) to `out`.
    /// With `include_volatile = false` the execution-shape metrics are
    /// omitted so the snapshot stays engine-independent (this is the
    /// `to_json(None)` determinism surface).
    pub(crate) fn write_json(&self, out: &mut String, include_volatile: bool) {
        out.push('{');
        let mut first = true;
        for (id, def) in SPEC.iter().enumerate() {
            if def.volatile && !include_volatile {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{{\"kind\":", def.name);
            match &self.slots[id] {
                Slot::Counter(v) => {
                    let _ = write!(
                        out,
                        "\"counter\",\"unit\":\"{}\",\"value\":{v}",
                        def.unit.name()
                    );
                }
                Slot::Gauge(v) => {
                    let _ = write!(
                        out,
                        "\"gauge\",\"unit\":\"{}\",\"value\":{v}",
                        def.unit.name()
                    );
                }
                Slot::Hist(h) => {
                    let _ = write!(
                        out,
                        "\"histogram\",\"unit\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
                        def.unit.name(),
                        h.count,
                        h.sum
                    );
                    for (i, b) in def.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("],\"counts\":[");
                    for (i, c) in h.counts.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{c}");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_ids_line_up() {
        assert_eq!(SPEC.len(), ids::ENGINE_QUEUE_REBUILDS + 1);
        assert_eq!(SPEC[ids::NET_MSGS_EAGER].name, "net.msgs_eager");
        assert_eq!(SPEC[ids::MPI_UNEXPECTED_HWM].kind, MetricKind::Gauge);
        assert_eq!(SPEC[ids::FS_WRITE_NS].kind, MetricKind::Histogram);
        assert_eq!(SPEC[ids::FAULT_SOFT_FLIPS].name, "fault.soft_flips");
        assert_eq!(SPEC[ids::NET_DROPS].name, "net.drops");
        assert_eq!(SPEC[ids::NET_BACKOFF_NS].unit, Unit::Nanos);
        assert_eq!(SPEC[ids::NET_CORRUPT_DROPS].name, "net.corrupt_drops");
        assert_eq!(SPEC[ids::ENGINE_WINDOWS].name, "engine.windows");
        assert_eq!(SPEC[ids::ENGINE_BATCH_MAX].name, "engine.batch_max_events");
        assert_eq!(SPEC[ids::NET_ROUTE_CACHE_HITS].name, "net.route_cache_hits");
        assert_eq!(SPEC[ids::MPI_PAYLOAD_CLONES].name, "mpi.payload_clones");
        assert_eq!(SPEC[ids::MPI_PAYLOAD_COPY_BYTES].unit, Unit::Bytes);
        assert_eq!(SPEC[ids::REP_HEARTBEATS].name, "rep.heartbeats");
        assert_eq!(SPEC[ids::REP_FAILOVER_NS].kind, MetricKind::Histogram);
        assert_eq!(SPEC[ids::REP_COPIES].name, "rep.copies");
        assert_eq!(
            SPEC[ids::ENGINE_BARRIER_HWM_NS].name,
            "engine.window.barrier_wait_hwm_ns"
        );
        assert_eq!(
            SPEC[ids::ENGINE_POOL_REUSE_RATIO].name,
            "engine.pool.reuse_ratio"
        );
        assert_eq!(
            SPEC[ids::ENGINE_QUEUE_BUCKET_HWM].name,
            "engine.queue.bucket_hwm"
        );
        assert_eq!(SPEC[ids::FS_STRIPE_REQS].name, "fs.stripe.requests");
        assert_eq!(SPEC[ids::FS_STRIPE_BYTES].unit, Unit::Bytes);
        assert_eq!(SPEC[ids::FS_STRIPE_QUEUE_NS].kind, MetricKind::Histogram);
        assert_eq!(SPEC[ids::CKPT_AGG_GATHERS].name, "ckpt.mode.agg_gathers");
        assert_eq!(SPEC[ids::CKPT_BUDDY_SPILLS].name, "ckpt.mode.buddy_spills");
        assert_eq!(SPEC[ids::CKPT_DIFF_BLOCKS].name, "ckpt.mode.diff_blocks");
        assert_eq!(SPEC[ids::CKPT_RESTORE_CHAIN].kind, MetricKind::Histogram);
        assert_eq!(
            SPEC[ids::CKPT_RESTORE_CHAIN].name,
            "ckpt.mode.restore_chain"
        );
        assert_eq!(SPEC[ids::NET_ROUTE_BFS_RUNS].name, "net.route_bfs_runs");
        assert_eq!(
            SPEC[ids::ENGINE_QUEUE_RING_HWM].name,
            "engine.queue.ring_hwm"
        );
        assert_eq!(
            SPEC[ids::ENGINE_QUEUE_REBUILDS].name,
            "engine.queue.rebuilds"
        );
        // Exactly the execution-shape metrics (engine profile + route
        // cache occupancy + event-core pool/queue shape) are volatile;
        // payload accounting is part of the deterministic snapshot.
        for (id, def) in SPEC.iter().enumerate() {
            let expect_volatile = (ids::ENGINE_WINDOWS..=ids::NET_ROUTE_CACHE_EVICTIONS)
                .contains(&id)
                || (ids::ENGINE_BARRIER_HWM_NS..=ids::ENGINE_QUEUE_BUCKET_HWM).contains(&id)
                || id >= ids::NET_ROUTE_BFS_RUNS;
            assert_eq!(def.volatile, expect_volatile, "volatility of {}", def.name);
        }
        // Names are unique.
        let mut names: Vec<_> = SPEC.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SPEC.len());
    }

    #[test]
    fn counter_gauge_hist_semantics() {
        let mut m = MetricSet::new();
        assert!(!m.any_activity());
        m.add(ids::FS_WRITES, 2);
        m.add(ids::FS_WRITES, 3);
        assert_eq!(m.value(ids::FS_WRITES), 5);
        m.add(ids::MPI_UNEXPECTED_HWM, 7);
        m.add(ids::MPI_UNEXPECTED_HWM, 4);
        assert_eq!(m.value(ids::MPI_UNEXPECTED_HWM), 7, "gauge keeps max");
        m.add(ids::NET_MSG_BYTES, 100);
        m.add(ids::NET_MSG_BYTES, 1 << 30);
        let h = m.hist(ids::NET_MSG_BYTES).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 100 + (1 << 30));
        assert_eq!(h.counts[1], 1, "100 lands in (64, 256]");
        assert_eq!(*h.counts.last().unwrap(), 1, "1 GiB overflows");
        assert!(m.any_activity());
    }

    #[test]
    fn hist_parts_merge_like_individual_adds() {
        let mut direct = MetricSet::new();
        let samples = [32u64, 64, 65, 300, 1 << 30];
        for &s in &samples {
            direct.add(ids::NET_MSG_BYTES, s);
        }
        let mut batched = MetricSet::new();
        let mut counts = vec![0u64; SIZE_BUCKETS.len() + 1];
        let mut sum = 0u64;
        for &s in &samples {
            counts[SIZE_BUCKETS.partition_point(|&b| b < s)] += 1;
            sum += s;
        }
        batched.add_hist_parts(ids::NET_MSG_BYTES, &counts, sum);
        assert_eq!(
            direct.hist(ids::NET_MSG_BYTES),
            batched.hist(ids::NET_MSG_BYTES)
        );
    }

    #[test]
    fn bucket_bounds_are_inclusive() {
        let mut m = MetricSet::new();
        m.add(ids::NET_MSG_BYTES, 64);
        assert_eq!(m.hist(ids::NET_MSG_BYTES).unwrap().counts[0], 1);
    }

    #[test]
    fn merge_sums_maxes_and_resets() {
        let mut a = MetricSet::new();
        let mut b = MetricSet::new();
        a.add(ids::CKPT_WRITES, 1);
        b.add(ids::CKPT_WRITES, 2);
        a.add(ids::MPI_UNEXPECTED_HWM, 3);
        b.add(ids::MPI_UNEXPECTED_HWM, 9);
        b.add(ids::FS_WRITE_NS, 500);
        a.merge_from(&mut b);
        assert_eq!(a.value(ids::CKPT_WRITES), 3);
        assert_eq!(a.value(ids::MPI_UNEXPECTED_HWM), 9);
        assert_eq!(a.hist(ids::FS_WRITE_NS).unwrap().count, 1);
        assert!(!b.any_activity(), "merge drains the source");
    }

    #[test]
    fn json_is_parseable() {
        let mut m = MetricSet::new();
        m.add(ids::NET_MSGS_EAGER, 4);
        m.add(ids::FS_WRITE_BYTES, 1024);
        let mut s = String::new();
        m.write_json(&mut s, true);
        let v = crate::json::Json::parse(&s).expect("valid JSON");
        assert_eq!(
            v.get("net.msgs_eager")
                .and_then(|e| e.get("value"))
                .and_then(|n| n.as_u64()),
            Some(4)
        );
        let hist = v.get("fs.write_bytes").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("kind").unwrap().as_str(), Some("histogram"));
    }

    #[test]
    fn volatile_metrics_are_gated_out_of_snapshots() {
        let mut m = MetricSet::new();
        m.add(ids::ENGINE_WINDOWS, 12);
        m.add(ids::CKPT_WRITES, 1);
        let mut without = String::new();
        m.write_json(&mut without, false);
        let v = crate::json::Json::parse(&without).expect("valid JSON");
        assert!(v.get("engine.windows").is_none(), "volatile gated out");
        assert!(v.get("ckpt.writes").is_some());
        let mut with = String::new();
        m.write_json(&mut with, true);
        let v = crate::json::Json::parse(&with).expect("valid JSON");
        assert_eq!(
            v.get("engine.windows")
                .and_then(|e| e.get("value"))
                .and_then(|n| n.as_u64()),
            Some(12)
        );
    }
}
