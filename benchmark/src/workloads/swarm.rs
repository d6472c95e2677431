//! `swarm10k`, `swarm10k-shard2`, `swarm10k-traced`: one `Swarm::run()`
//! per operation on `perf_baseline`'s churned power-law geometry scaled
//! ×10. At 10 000 peers the roster no longer fits the cache, which is why
//! the 1 000-peer probe is not reused.

use icd_obs::{ProfileHandle, TraceBuf, TraceHandle};
use icd_swarm::{ChurnConfig, Link, Swarm, SwarmConfig, SwarmOutcome, TopologyKind};

use super::{op_seed, Env, OpCounts, Workload};
use crate::spans::Spans;
use crate::stats::median;

const PEERS: usize = 10_000;
const BLOCKS: usize = 64;

fn config(peers: usize) -> SwarmConfig {
    let profiles = [1, 2, 4, 8, 16].map(Link::slower).to_vec();
    let mut cfg = SwarmConfig::new(peers, BLOCKS, TopologyKind::PowerLaw { m: 2 })
        .with_link_profiles(profiles)
        .with_churn(ChurnConfig {
            leave_fraction: 0.10,
            downtime: 60,
            window: (5, 160),
            joins: peers / 100,
            rewires: peers / 50,
        });
    // Slow links deliver few packets per maintenance window; match the
    // cadence so stagnation detection reflects rate, not impatience.
    cfg.refresh_interval = 40;
    cfg
}

/// `ICD_SHARDS` is the user-facing executor switch, read when a swarm is
/// built. Only called while no other thread of this process runs.
fn set_shards(shards: usize) {
    std::env::set_var("ICD_SHARDS", shards.to_string());
}

pub struct Input {
    swarm: Swarm,
    seed: u64,
    tracer: Option<TraceHandle>,
}

#[derive(Default)]
pub struct Swarm10k {
    shards: usize,
    traced: bool,
    profile: ProfileHandle,
    ops: f64,
    events: f64,
    packets: f64,
    ticks: f64,
    membership_events: f64,
    reconnects: f64,
    wire_bytes: f64,
    completed: f64,
    peers: f64,
    trace_records: f64,
    trace_dropped: f64,
}

impl Swarm10k {
    fn new(shards: usize, traced: bool) -> Self {
        Self {
            shards,
            traced,
            ..Self::default()
        }
    }

    pub fn serial() -> Self {
        Self::new(1, false)
    }

    pub fn shard2() -> Self {
        Self::new(2, false)
    }

    pub fn traced() -> Self {
        Self::new(1, true)
    }
}

impl Workload for Swarm10k {
    type Input = Input;
    type Output = SwarmOutcome;

    /// One run at a tenth of the roster: it pages in the code and fills
    /// the lazily built registries, but leaves no full-size swarm's worth
    /// of fragments in the heap for `peak_rss_mb` to read.
    fn warm_up(&mut self, env: &Env) -> Result<(), String> {
        set_shards(self.shards);
        let out = Swarm::new(config(PEERS / 10), op_seed(env.seed, u64::MAX)).run();
        if out.all_complete() {
            Ok(())
        } else {
            Err(format!("{} of {} peers complete", out.completed, out.peers))
        }
    }

    fn set_up(&mut self, op: u64, env: &Env, spans: &mut Spans) -> Result<Input, String> {
        let seed = op_seed(env.seed, op);
        let mut swarm = spans.time("swarm.build", || Swarm::new(config(PEERS), seed));
        let tracer = self.traced.then(|| TraceBuf::shared(1 << 22));
        if let Some(tracer) = &tracer {
            swarm.set_tracer(tracer.clone());
        }
        if spans.enabled() {
            swarm.set_profiler(self.profile.clone());
        }
        Ok(Input {
            swarm,
            seed,
            tracer,
        })
    }

    fn run(&mut self, input: &mut Input, spans: &mut Spans) -> Result<SwarmOutcome, String> {
        Ok(spans.time("overlay.run", || input.swarm.run()))
    }

    fn check(
        &mut self,
        _op: u64,
        input: Input,
        out: SwarmOutcome,
        _spans: &mut Spans,
    ) -> Result<OpCounts, String> {
        if !out.all_complete() {
            return Err(format!("{} of {} peers complete", out.completed, out.peers));
        }
        let Input {
            swarm,
            seed,
            tracer,
        } = input;
        // Freed before the serial reference is built, so two swarms never
        // share the heap.
        drop(swarm);
        if self.shards > 1 {
            set_shards(1);
            let serial = Swarm::new(config(PEERS), seed).run();
            set_shards(self.shards);
            if serial != out {
                return Err(format!(
                    "{}-shard outcome differs from serial: {out:?} vs {serial:?}",
                    self.shards
                ));
            }
        }
        if let Some(tracer) = &tracer {
            let buf = tracer.borrow();
            self.trace_records += buf.len() as f64;
            self.trace_dropped += buf.dropped() as f64;
        }
        self.ops += 1.0;
        self.events += out.events as f64;
        self.packets += out.packets as f64;
        self.ticks += out.ticks as f64;
        self.membership_events += f64::from(out.membership_events());
        self.reconnects += out.reconnects as f64;
        self.wire_bytes += out.wire_bytes as f64;
        self.completed += out.completed as f64;
        self.peers += out.peers as f64;
        Ok(OpCounts {
            work: out.events as f64,
            sent: out.overhead,
            useful: 1.0,
            exact: format!(
                "events={} packets={} ticks={} wire_bytes={} overhead={}",
                out.events, out.packets, out.ticks, out.wire_bytes, out.overhead
            ),
            peak_rss_mb: None,
        })
    }

    fn layers(&self, spans: &Spans) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1.0);
        let run_s = spans.seconds_of("overlay.run");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let profile = self.profile.borrow();
        let phase_s = |name| profile.total_ns(name) as f64 / 1e9 / ops;
        let (generate, merge, commit) = (
            phase_s("shard_generate"),
            phase_s("shard_merge"),
            phase_s("shard_commit"),
        );
        let barrier = phase_s("shard_generate_barrier") + phase_s("shard_commit_barrier");
        let windows = profile.get("shard_generate").map_or(0, |s| s.calls);
        vec![
            ("overlay.run_s", median(&run_s).unwrap_or(0.0)),
            ("overlay.events", self.events / ops),
            ("overlay.packets", self.packets / ops),
            ("overlay.ticks", self.ticks / ops),
            (
                "overlay.ns_per_event",
                ratio(run_s.iter().sum::<f64>() * 1e9, self.events),
            ),
            ("overlay.shard_generate_s", generate),
            ("overlay.shard_merge_s", merge),
            ("overlay.shard_commit_s", commit),
            (
                "overlay.shard_barrier_share",
                ratio(barrier, generate + merge + commit),
            ),
            ("overlay.shard_windows", windows as f64 / ops),
            (
                "swarm.build_s",
                median(&spans.seconds_of("swarm.build")).unwrap_or(0.0),
            ),
            ("swarm.membership_events", self.membership_events / ops),
            ("swarm.reconnects", self.reconnects / ops),
            ("swarm.wire_bytes", self.wire_bytes / ops),
            ("swarm.complete_share", ratio(self.completed, self.peers)),
            ("obs.trace_records", self.trace_records / ops),
            ("obs.trace_dropped", self.trace_dropped / ops),
        ]
    }
}
