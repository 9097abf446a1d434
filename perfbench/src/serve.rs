//! `serve-churn`: the online allocation service over 16 nodes × 8λ with
//! threshold defrag and a max-wait, under seeded Poisson session churn
//! past the admission knee, so the wait queue, max-wait blocking and
//! defrag all fire. The only workload on the ledger's grant, release and
//! defrag paths; it calls no event engine.

use std::collections::BTreeMap;
use std::time::Instant;

use onoc_serve::{
    DefragPolicy, PoissonWorkload, ServeEventKind, ServiceConfig, ServiceOutcome, SessionRequest,
    serve,
};
use onoc_sim::NullProbe;
use onoc_topology::{NodeId, RingPath, RingTopology};
use onoc_wa::{GrantPolicy, OccupancyLedger};

use crate::harness::{Bench, Checks, Metric, Verdict, Workload, metric};
use crate::probe::CountingProbe;

const CONFIG: ServiceConfig = ServiceConfig {
    nodes: 16,
    wavelengths: 8,
    policy: GrantPolicy::Disjoint,
    defrag: DefragPolicy::OnThreshold { min_free_run: 0.25 },
    max_wait: Some(5_000),
};
const SESSIONS: usize = 400_000;
/// Sessions per cycle: just past the admission knee at this hold time
/// and demand (at 0.02 no session blocks; here about 2% do).
const ARRIVAL_RATE: f64 = 0.025;
const MEAN_HOLD: f64 = 400.0;
const MAX_DEMAND: usize = 3;

pub struct ServeChurn;

pub struct State {
    requests: Vec<SessionRequest>,
}

fn path(ring: &RingTopology, src: usize, dst: usize) -> RingPath {
    let (src, dst) = (NodeId(src), NodeId(dst));
    RingPath::new(ring, src, dst, ring.shortest_direction(src, dst))
}

/// Replays the admission log: no lane may be shared by two live
/// sessions whose paths overlap, and every release frees what the
/// session held. Returns the first violation.
fn replay_log(outcome: &ServiceOutcome) -> Result<(), String> {
    let ring = RingTopology::new(CONFIG.nodes);
    let mut live: BTreeMap<u64, (RingPath, u128)> = BTreeMap::new();
    let clash = |live: &BTreeMap<u64, (RingPath, u128)>, id: u64, p: &RingPath, mask: u128| {
        live.iter()
            .find(|(other, (q, m))| **other != id && m & mask != 0 && p.overlaps(q))
            .map(|(other, _)| *other)
    };
    for (row, event) in outcome.log.iter().enumerate() {
        match event.kind {
            ServeEventKind::Grant => {
                let p = path(&ring, event.src, event.dst);
                if let Some(other) = clash(&live, event.session, &p, event.lanes) {
                    return Err(format!(
                        "row {row}: session {} granted lanes {:#x} held by overlapping session {other}",
                        event.session, event.lanes
                    ));
                }
                live.insert(event.session, (p, event.lanes));
            }
            ServeEventKind::Move => {
                let entry = live
                    .get_mut(&event.session)
                    .ok_or(format!("row {row}: move of dead session {}", event.session))?;
                entry.1 = event.lanes;
            }
            ServeEventKind::Release => {
                let (_, mask) = live.remove(&event.session).ok_or(format!(
                    "row {row}: release of dead session {}",
                    event.session
                ))?;
                if mask != event.lanes {
                    return Err(format!(
                        "row {row}: release frees {:#x}, held {mask:#x}",
                        event.lanes
                    ));
                }
            }
            ServeEventKind::Arrive | ServeEventKind::Block | ServeEventKind::Defrag => {}
        }
        // A defrag's moves land row by row; check the whole map once the
        // last move of the group is in.
        let group_done = !matches!(
            outcome.log.get(row + 1).map(|e| e.kind),
            Some(ServeEventKind::Move)
        );
        if matches!(event.kind, ServeEventKind::Move) && group_done {
            for (id, (p, mask)) in &live {
                if let Some(other) = clash(&live, *id, p, *mask) {
                    return Err(format!(
                        "row {row}: after defrag {id} and {other} share a lane"
                    ));
                }
            }
        }
    }
    if live.is_empty() {
        Ok(())
    } else {
        Err(format!("{} sessions never released", live.len()))
    }
}

/// Mean ns per call of the ledger's grant, release and defrag, driven by
/// the admission log; also confirms the ledger reproduces every mask.
#[allow(clippy::cast_precision_loss)]
fn drive_ledger(outcome: &ServiceOutcome) -> Result<[f64; 3], String> {
    let ring = RingTopology::new(CONFIG.nodes);
    let mut ledger = OccupancyLedger::new(CONFIG.wavelengths);
    let mut live: BTreeMap<u64, RingPath> = BTreeMap::new();
    let mut ns = [0u128; 3];
    let mut calls = [0u32; 3];
    for (row, event) in outcome.log.iter().enumerate() {
        match event.kind {
            ServeEventKind::Grant => {
                let p = path(&ring, event.src, event.dst);
                let conflicts: Vec<u64> = live
                    .iter()
                    .filter(|(_, q)| q.overlaps(&p))
                    .map(|(id, _)| *id)
                    .collect();
                let start = Instant::now();
                let grant = ledger.grant(event.session, event.demand, &conflicts, CONFIG.policy);
                ns[0] += start.elapsed().as_nanos();
                calls[0] += 1;
                match grant {
                    Ok(g) if g.mask == event.lanes => {}
                    other => return Err(format!("row {row}: ledger grant {other:?}")),
                }
                live.insert(event.session, p);
            }
            ServeEventKind::Release => {
                let start = Instant::now();
                let freed = ledger.release(event.session);
                ns[1] += start.elapsed().as_nanos();
                calls[1] += 1;
                if freed != Some(event.lanes) {
                    return Err(format!("row {row}: ledger released {freed:?}"));
                }
                live.remove(&event.session);
            }
            ServeEventKind::Defrag => {
                let start = Instant::now();
                let outcome = ledger.defrag(CONFIG.policy);
                ns[2] += start.elapsed().as_nanos();
                calls[2] += 1;
                if outcome.map(|o| o.moved) != Some(event.demand) {
                    return Err(format!("row {row}: ledger defrag {outcome:?}"));
                }
            }
            ServeEventKind::Move => {
                if ledger.session_mask(event.session) != Some(event.lanes) {
                    return Err(format!("row {row}: ledger lost a defrag move"));
                }
            }
            ServeEventKind::Arrive | ServeEventKind::Block => {}
        }
    }
    let mean = |k: usize| ns[k] as f64 / f64::from(calls[k].max(1));
    Ok([mean(0), mean(1), mean(2)])
}

impl Workload for ServeChurn {
    type State = State;
    type Output = ServiceOutcome;

    fn setup(&self, bench: &mut Bench) -> State {
        let churn = PoissonWorkload {
            nodes: CONFIG.nodes,
            sessions: SESSIONS,
            arrival_rate: ARRIVAL_RATE,
            mean_hold: MEAN_HOLD,
            max_demand: MAX_DEMAND,
            seed: bench.seed,
        };
        let requests = bench.tracer.span("serve.generate", || churn.generate());
        State { requests }
    }

    fn pass(&self, bench: &mut Bench, state: &mut State) -> ServiceOutcome {
        bench
            .tracer
            .span("serve.serve", || {
                serve(&CONFIG, &state.requests, &mut NullProbe)
            })
            .expect("generated churn is sorted and fits the comb")
    }

    fn operations(&self, _output: &ServiceOutcome) -> usize {
        1
    }

    /// The report, then the admission log row by row: every field the
    /// log's CSV carries, streamed instead of rendered whole.
    fn canonical(
        &self,
        output: &ServiceOutcome,
        out: &mut dyn std::fmt::Write,
    ) -> std::fmt::Result {
        writeln!(out, "{:?}", output.report)?;
        for event in &output.log {
            writeln!(out, "{event:?}")?;
        }
        Ok(())
    }

    fn check(&self, _state: &mut State, output: &ServiceOutcome) -> Verdict {
        let mut verdict = Verdict::default();
        let r = &output.report;
        verdict.require(r.admitted + r.blocked == r.offered, 1, || {
            format!(
                "admitted {} + blocked {} != offered {}",
                r.admitted, r.blocked, r.offered
            )
        });
        let replay = replay_log(output);
        verdict.require(replay.is_ok(), 1, || {
            format!("admission log replay: {}", replay.clone().unwrap_err())
        });
        verdict
    }

    fn outputs(&self, output: &ServiceOutcome) -> Vec<Metric> {
        vec![
            metric("admit_p99_cycles", output.report.admission_p99 as f64),
            metric("blocked_frac", output.report.blocking_rate),
        ]
    }

    fn layers(
        &self,
        bench: &mut Bench,
        state: &mut State,
        output: &ServiceOutcome,
        checks: &mut Checks,
    ) -> Vec<Metric> {
        let tracer = &mut bench.tracer;
        let r = &output.report;
        let gen_ms = crate::harness::median(&tracer.durations_ms("serve.generate"));
        let serve_ms = crate::harness::median(&tracer.durations_ms("serve.serve"));

        // The counting probe sees one grant per admission, one release
        // per retirement, one heal-shaped fact per defrag, one drop per
        // block.
        let mut counting = CountingProbe::default();
        let counted = tracer.span("serve.serve_counting", || {
            serve(&CONFIG, &state.requests, &mut counting)
        });
        checks.expect(
            counted.as_ref().map(|o| &o.report) == Ok(r)
                && counting.admitted == r.admitted as u64
                && counting.retired == r.admitted as u64
                && counting.heals == r.defrag_runs as u64
                && counting.dropped == r.blocked as u64,
            || format!("counting probe {counting:?} disagrees with {r:?}"),
        );

        let ledger = tracer.span("wa.ledger", || drive_ledger(output));
        checks.expect(ledger.is_ok(), || {
            format!("ledger replay: {}", ledger.clone().unwrap_err())
        });
        let [grant_ns, release_ns, defrag_ns] = ledger.unwrap_or_default();

        #[allow(clippy::cast_precision_loss)]
        let metrics = vec![
            metric("serve.ns_per_session", serve_ms * 1e6 / r.offered as f64),
            metric("serve.gen_ms", gen_ms),
            metric(
                "serve.pack_ratio",
                r.incremental_packs as f64 / r.full_repack_packs as f64,
            ),
            metric("serve.defrag_runs", r.defrag_runs as f64),
            metric("serve.defrag_moves", r.defrag_moves as f64),
            metric("wa.ledger.grant_ns", grant_ns),
            metric("wa.ledger.release_ns", release_ns),
            metric("wa.ledger.defrag_us", defrag_ns / 1e3),
        ];
        metrics
    }
}
