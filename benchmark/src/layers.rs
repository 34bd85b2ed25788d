//! The traced pass: a second pass per workload, after the timed pass and
//! never mixed with it. Every span is opened here, around a call into a
//! crate's *public* functions, with the count recorded at the same boundary;
//! nothing is recorded inside any crate. Figures that need an end-to-end
//! wall (ratios, coverage) take it again inside this pass, so the pass stands
//! on its own when the driver runs it in a process of its own.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::*;
use crate::calib;
use crate::ops::{digest, fingerprint, Bench, Reference, Tally};
use crate::stats::percentile_u32;
use crate::trace::Tracer;

/// One sample per layer metric per traced cycle.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn put(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

/// Nanoseconds per unit of a span that took `seconds` over `units` units.
fn ns_per(seconds: f64, units: u64) -> f64 {
    seconds * 1e9 / units.max(1) as f64
}

/// What every layer function works on: one workload and the pass's state.
pub struct Pass<'a, 'b> {
    pub bench: &'a Bench<'b>,
    pub reference: &'a Reference,
    pub tracer: &'a mut Tracer,
    pub tally: &'a mut Tally,
    pub samples: &'a mut Samples,
}

/// One pass over every layer; appends one sample per layer metric.
pub fn traced_cycle(pass: &mut Pass) {
    rank_sharded_walls_and_obs_spans(pass);
    if let Some(built) = resident_stages(pass) {
        single_kernels(pass, &built);
    }
    ygm_layers(pass);
    ingest_and_store(pass);
    stream_parts(pass);
    // The cross-machine yardstick and this process's memory.
    let (_, s) = pass.tracer.scope("calib.sort_1m_u64", "key", |_| {
        (calib::sort_kernel(), 1_000_000)
    });
    put(pass.samples, "calib.sort_1m_u64_ms", s * 1e3);
    if let Some(kb) = obs::peak_rss_kb() {
        put(pass.samples, "proc.peak_rss_mb", kb as f64 / 1024.0);
    }
}

fn seconds_of(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Plain ranks1/ranks2 walls for the ratios, then ranks1 and spill under
/// `obs::Obs::enable()`: the five `dist.*` spans and the spill counter are
/// the only engine-side data the benchmark reads.
fn rank_sharded_walls_and_obs_spans(pass: &mut Pass) {
    let Pass {
        bench,
        reference,
        tracer,
        tally,
        samples,
    } = pass;
    let n_events = bench.inputs.events.len() as u64;
    let ranks1_wall = seconds_of(|| drop(std::hint::black_box(bench.ranks(1, None))));
    let ranks2_wall = seconds_of(|| drop(std::hint::black_box(bench.ranks(2, None))));
    put(
        samples,
        "core.dist.ranks2_events_per_s",
        n_events as f64 / ranks2_wall,
    );
    put(
        samples,
        "core.dist.scaling_r2_over_r1",
        ranks1_wall / ranks2_wall,
    );
    put(
        samples,
        "proc.first_run_over_warm",
        reference.first_ranks1_s / ranks1_wall,
    );

    let mut ranks1_obs_wall = ranks1_wall;
    tally.op("traced ranks1 under obs", || {
        obs::reset();
        obs::Obs::enable();
        let (out, wall) = tracer.scope("core.dist.ranks1_obs", "event", |_| {
            (bench.ranks(1, None), n_events)
        });
        obs::Obs::disable();
        ranks1_obs_wall = wall;
        put(samples, "obs.enabled_overhead_ratio", wall / ranks1_wall);
        let snap = obs::snapshot();
        let mut covered = 0.0;
        for (metric, label) in [
            ("core.dist.ingest_s_r1", "dist.ingest"),
            ("core.dist.exchange_s_r1", "dist.exchange"),
            ("core.dist.project_s_r1", "dist.project"),
            ("core.dist.survey_s_r1", "dist.survey"),
            ("core.dist.validate_s_r1", "dist.validate"),
        ] {
            // A span a later PR renames leaves its metric without samples
            // (printed as null), which is reported but is not a failure.
            if let Some(stats) = snap.span(label) {
                put(samples, metric, stats.total_seconds());
                covered += stats.total_seconds();
            }
        }
        put(samples, "bench.ledger_coverage_ranks1", covered / wall);
        if fingerprint(&out) == reference.fp {
            Ok(())
        } else {
            Err("output differs under obs".to_string())
        }
    });
    tally.op("traced spill under obs", || {
        obs::reset();
        obs::Obs::enable();
        let (_, wall) = tracer.scope("core.dist.spill_obs", "event", |_| {
            (bench.ranks(1, Some(bench.spill_budget())), n_events)
        });
        obs::Obs::disable();
        let spilled = obs::snapshot()
            .counter("shuffle.spilled_bytes")
            .unwrap_or(0);
        put(
            samples,
            "store.segment.spilled_bytes_per_event",
            spilled as f64 / n_events as f64,
        );
        put(
            samples,
            "store.segment.spill_wall_ratio",
            ranks1_obs_wall / wall,
        );
        if spilled > 0 {
            Ok(())
        } else {
            Err("nothing spilled".to_string())
        }
    });
}

/// What the staged resident run built, for the single-kernel replays.
struct Built {
    btm: Btm,
    ci: CiGraph,
    oriented: OrientedGraph,
}

/// The resident path, stage by stage through the same public calls
/// `Pipeline::run_btm` makes, under one `resident` root span.
fn resident_stages(pass: &mut Pass) -> Option<Built> {
    let Pass {
        bench,
        reference,
        tracer,
        tally,
        samples,
    } = pass;
    let inputs = bench.inputs;
    let events = &inputs.events;
    let n_events = events.len() as u64;
    let resident_wall = seconds_of(|| drop(std::hint::black_box(bench.resident())));
    tally.op("traced resident stages", || {
        let (built, total) = tracer.scope("resident", "event", |t| {
            let (btm, btm_s) = t.scope("core.btm.build", "event", |_| {
                (
                    Btm::from_events(inputs.n_authors, inputs.n_pages, events),
                    n_events,
                )
            });
            let (ci, project_s) = t.scope("core.project", "event", |_| {
                (project(&btm, bench.cfg.window), n_events)
            });
            let (oriented, orient_s) = t.scope("tripoll.orient", "edge", |_| {
                let oriented = if bench.cfg.edge_threshold > 1 {
                    OrientedGraph::from_ref(&ci.threshold_view(bench.cfg.edge_threshold))
                } else {
                    OrientedGraph::from_ref(ci.as_csr())
                };
                let edges = oriented.m();
                (oriented, edges)
            });
            let survey_cfg = SurveyConfig {
                min_edge_weight: bench.cfg.min_triangle_weight,
                min_t_score: 0.0,
                top_k: None,
            };
            let (report, survey_s) = t.scope("tripoll.survey", "triangle", |_| {
                let report = survey(&oriented, &survey_cfg, Some(ci.page_counts()));
                let examined = report.total_examined;
                (report, examined)
            });
            let (triplets, validate_s) = t.scope("core.hypergraph.validate", "triplet", |_| {
                let triangles: Vec<Triangle> =
                    report.triangles.iter().map(|s| s.triangle).collect();
                let triplets = validate_all(&btm, ci.page_counts(), &triangles);
                let validated = triplets.len() as u64;
                (triplets, validated)
            });
            let same = ci.n_edges() == reference.fp.stats[3]
                && report.total_examined == reference.fp.stats[5]
                && digest(&report.triangles, &triplets) == reference.fp.digest;
            if !same {
                return (None, n_events);
            }
            let stages_s = btm_s + project_s + orient_s + survey_s + validate_s;
            put(
                samples,
                "core.btm.build_ns_per_event",
                ns_per(btm_s, n_events),
            );
            put(
                samples,
                "core.project.ns_per_event",
                ns_per(project_s, n_events),
            );
            put(samples, "core.project.ci_edges", ci.n_edges() as f64);
            put(
                samples,
                "tripoll.orient.ns_per_edge",
                ns_per(orient_s, oriented.m()),
            );
            put(
                samples,
                "tripoll.survey.ns_per_triangle",
                ns_per(survey_s, report.total_examined),
            );
            put(
                samples,
                "tripoll.survey.triangles_examined",
                report.total_examined as f64,
            );
            put(
                samples,
                "tripoll.survey.triangles_kept",
                report.len() as f64,
            );
            put(
                samples,
                "core.hypergraph.validate_ns_per_triplet",
                ns_per(validate_s, triplets.len() as u64),
            );
            put(samples, "core.hypergraph.triplets", triplets.len() as f64);
            put(samples, "core.resident.btm_share", 100.0 * btm_s / stages_s);
            put(
                samples,
                "core.resident.project_share",
                100.0 * project_s / stages_s,
            );
            put(
                samples,
                "core.resident.survey_share",
                100.0 * (orient_s + survey_s) / stages_s,
            );
            put(
                samples,
                "core.resident.validate_share",
                100.0 * validate_s / stages_s,
            );
            put(
                samples,
                "bench.ledger_coverage_resident",
                stages_s / resident_wall,
            );
            (Some(Built { btm, ci, oriented }), n_events)
        });
        put(samples, "bench.trace_overhead_ratio", total / resident_wall);
        built.ok_or("the staged resident run differs from Pipeline::run_btm".to_string())
    })
}

/// Single kernels replayed on what the staged run built: the pair kernel,
/// the CSR build, and the distributed survey at 1 and 2 ranks.
fn single_kernels(pass: &mut Pass, built: &Built) {
    let Pass {
        bench,
        reference,
        tracer,
        tally,
        samples,
    } = pass;
    let n_events = bench.inputs.events.len() as u64;
    let window = bench.cfg.window;
    tracer.scope("kernels", "event", |t| {
        let (pairs, pair_s) = t.scope("core.project.pair_kernel", "pair", |_| {
            let mut scratch = Vec::new();
            let mut occurrences = 0u64;
            for (_, comments) in built.btm.pages() {
                page_pairs_flat(comments, &window, &mut scratch);
                occurrences += scratch.len() as u64;
            }
            (occurrences, occurrences)
        });
        put(samples, "core.project.pair_occurrences", pairs as f64);
        put(
            samples,
            "core.project.pair_kernel_ns_per_pair",
            ns_per(pair_s, pairs),
        );

        let edge_run: Vec<(u32, u32, u64)> = built.ci.edges().collect();
        let edges = edge_run.len() as u64;
        tally.op("traced csr build", || {
            let (csr, csr_s) = t.scope("graph.csr.build", "edge", |_| {
                (
                    CsrGraph::from_canonical_runs(bench.inputs.n_authors, vec![edge_run]),
                    edges,
                )
            });
            put(samples, "graph.csr.build_ns_per_edge", ns_per(csr_s, edges));
            if csr.m() == edges {
                Ok(())
            } else {
                Err(format!("csr has {} of {edges} edges", csr.m()))
            }
        });

        for (nranks, metric, span) in [
            (
                1,
                "tripoll.dist_survey.ns_per_triangle_r1",
                "tripoll.dist_survey.r1",
            ),
            (
                2,
                "tripoll.dist_survey.ns_per_triangle_r2",
                "tripoll.dist_survey.r2",
            ),
        ] {
            tally.op(span, || {
                let (found, survey_s) = t.scope(span, "triangle", |_| {
                    let found =
                        distributed_survey(&built.oriented, bench.cfg.min_triangle_weight, nranks);
                    let total = found.total_triangles;
                    (found, total)
                });
                put(samples, metric, ns_per(survey_s, found.total_triangles));
                let want = (reference.fp.stats[5], reference.fp.stats[6]);
                let got = (found.total_triangles, found.triangles.len() as u64);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("found {got:?} triangles, the survey {want:?}"))
                }
            });
        }
        ((), n_events)
    });
}

/// The `(page, ts, author)` → `u128` order-preserving key the rank-sharded
/// path sorts its event runs by (`page·2⁹⁶ | (ts ⊕ 2⁶³)·2³² | author`).
fn event_key(page: u32, ts: i64, author: u32) -> u128 {
    ((page as u128) << 96) | ((((ts as u64) ^ (1 << 63)) as u128) << 32) | author as u128
}

/// Ship every event through a `PackedAggregator` to the owner of its page
/// on `nranks` ranks. With `runs`, each arriving batch is absorbed into the
/// owner's run stack; without, it is only counted. Returns wire bytes and
/// batches (the aggregators' own exact counts).
fn replay_exchange(
    events: &[Event],
    nranks: usize,
    runs: Option<&DistRuns<u128>>,
) -> Result<(u64, u64), String> {
    let received = Arc::new(AtomicU64::new(0));
    let per_rank = World::run(nranks, |ctx| {
        let received = Arc::clone(&received);
        let runs = runs.cloned();
        let apply = move |inner: &RankCtx, batch: PackedBatch<(u32, i64, u32)>| {
            received.fetch_add(batch.len() as u64, Ordering::Relaxed);
            if let Some(runs) = &runs {
                runs.local_absorb(inner, batch.iter().map(|(p, ts, a)| event_key(p, ts, a)));
            }
        };
        let mut to_pages =
            PackedAggregator::<(u32, i64, u32), _>::new(ctx, "bench_events_to_pages", apply);
        for e in &events[block_range(ctx.rank(), events.len(), nranks)] {
            to_pages.push(
                ctx,
                owner_of(&e.page.0, nranks),
                (e.page.0, e.ts, e.author.0),
            );
        }
        to_pages.flush_all(ctx);
        ctx.barrier();
        (to_pages.bytes_sent(), to_pages.batches_sent())
    });
    let got = received.load(Ordering::Relaxed);
    if got != events.len() as u64 {
        return Err(format!(
            "{got} of {} events arrived at {nranks} ranks",
            events.len()
        ));
    }
    Ok(per_rank
        .iter()
        .fold((0, 0), |acc, r| (acc.0 + r.0, acc.1 + r.1)))
}

/// ygm: the packed exchange, the receive-side run stacks, the barrier and
/// the partition skew.
fn ygm_layers(pass: &mut Pass) {
    let Pass {
        bench,
        tracer,
        tally,
        samples,
        ..
    } = pass;
    let events = &bench.inputs.events;
    let n_events = events.len() as u64;
    tracer.scope("ygm", "event", |t| {
        for (nranks, ship, absorb, ship_span, absorb_span) in [
            (
                1,
                "ygm.exchange.ship_ns_per_event_r1",
                "ygm.runs.absorb_ns_per_event_r1",
                "ygm.exchange.ship.r1",
                "ygm.runs.absorb.r1",
            ),
            (
                2,
                "ygm.exchange.ship_ns_per_event_r2",
                "ygm.runs.absorb_ns_per_event_r2",
                "ygm.exchange.ship.r2",
                "ygm.runs.absorb.r2",
            ),
        ] {
            let mut ship_s = 0.0;
            tally.op(ship_span, || {
                let (sent, s) = t.scope(ship_span, "event", |_| {
                    (replay_exchange(events, nranks, None), n_events)
                });
                let (bytes, batches) = sent?;
                ship_s = s;
                put(samples, ship, ns_per(s, n_events));
                if nranks == 1 {
                    put(
                        samples,
                        "ygm.exchange.wire_bytes_per_event",
                        bytes as f64 / n_events as f64,
                    );
                    put(samples, "ygm.exchange.batches", batches as f64);
                }
                Ok(())
            });
            tally.op(absorb_span, || {
                let runs: DistRuns<u128> = DistRuns::new(nranks, "bench_page_events", None);
                let (sent, s) = t.scope(absorb_span, "event", |_| {
                    (replay_exchange(events, nranks, Some(&runs)), n_events)
                });
                sent?;
                // Absorbing (sort + incremental merge) is what the run costs
                // beyond shipping the same events to a counting receiver.
                put(samples, absorb, ns_per(s - ship_s, n_events));
                if nranks > 1 {
                    return Ok(());
                }
                let (drained, s) = t.scope("ygm.runs.drain", "event", |_| {
                    let drained = World::run(1, |ctx| runs.local_take(ctx).cursor().count() as u64);
                    (drained[0], drained[0])
                });
                put(samples, "ygm.runs.drain_ns_per_event", ns_per(s, n_events));
                if drained == n_events {
                    Ok(())
                } else {
                    Err(format!("drained {drained} of {n_events} keys"))
                }
            });
        }
        let mut keys: Vec<u128> = events
            .iter()
            .map(|e| event_key(e.page.0, e.ts, e.author.0))
            .collect();
        let (_, s) = t.scope("ygm.runs.sort", "key", |_| {
            for batch in keys.chunks_mut(4096) {
                sort_run(batch);
            }
            ((), n_events)
        });
        put(samples, "ygm.runs.sort_ns_per_key", ns_per(s, n_events));
        const BARRIERS: u64 = 10_000;
        let (_, s) = t.scope("ygm.comm.barrier.r2", "barrier", |_| {
            World::run(2, |ctx| (0..BARRIERS).for_each(|_| ctx.barrier()));
            ((), BARRIERS)
        });
        put(samples, "ygm.comm.barrier_ns_r2", ns_per(s, BARRIERS));
        let mut owned = [0u64; 2];
        for e in events {
            owned[owner_of(&e.page.0, 2)] += 1;
        }
        put(
            samples,
            "ygm.partition.page_skew_r2",
            owned[0].max(owned[1]) as f64 / (n_events as f64 / 2.0),
        );
        ((), n_events)
    });
}

/// Text ingest (scanner alone, then the whole ingest) and the snapshot
/// store (write, open, full decode) on the workload's NDJSON.
fn ingest_and_store(pass: &mut Pass) {
    let Pass {
        bench,
        tracer,
        tally,
        samples,
        ..
    } = pass;
    let n_events = bench.inputs.events.len() as u64;
    tally.op("traced ingest and snapshot", || {
        let text = std::fs::read(&bench.inputs.ndjson).map_err(|e| format!("read ndjson: {e}"))?;
        let lines = std::str::from_utf8(&text).map_err(|e| e.to_string())?;
        put(
            samples,
            "core.ingest.input_bytes_per_event",
            text.len() as f64 / n_events as f64,
        );
        let path = bench
            .scratch
            .join(format!("{}.traced.snap", bench.spec.name));
        let mut stages = |t: &mut Tracer| -> Result<(), String> {
            let (scanned, s) = t.scope("core.ingest.scan", "event", |_| {
                let scanned = lines
                    .lines()
                    .filter(|line| scan_record(line).is_some())
                    .count() as u64;
                (scanned, scanned)
            });
            put(
                samples,
                "core.ingest.scan_ns_per_event",
                ns_per(s, n_events),
            );
            let (ingest, s) = t.scope("core.ingest.total", "event", |_| {
                (ingest_slice(&text, &IngestConfig::default()), n_events)
            });
            let dataset = ingest.map_err(|e| e.to_string())?.dataset;
            put(
                samples,
                "core.ingest.total_ns_per_event",
                ns_per(s, n_events),
            );
            if scanned != n_events || dataset.len() as u64 != n_events {
                return Err(format!(
                    "scanned {scanned}, ingested {} of {n_events} lines",
                    dataset.len()
                ));
            }
            let (written, s) = t.scope("store.snapshot.write", "event", |_| {
                (write_snapshot(&dataset, None, &path), n_events)
            });
            let written = written.map_err(|e| e.to_string())?;
            put(samples, "store.snapshot.write_s", s);
            put(
                samples,
                "store.snapshot.bytes_per_event",
                written.bytes as f64 / n_events as f64,
            );
            let (snap, s) = t.scope("store.snapshot.open", "byte", |_| {
                (Snapshot::open(&path), written.bytes)
            });
            let snap = snap.map_err(|e| e.to_string())?;
            put(samples, "store.snapshot.open_ms", s * 1e3);
            let (decoded, s) = t.scope("store.snapshot.decode", "event", |_| {
                let decoded = snap.events().iter().count() as u64;
                (decoded, decoded)
            });
            put(
                samples,
                "store.snapshot.decode_ns_per_event",
                ns_per(s, n_events),
            );
            if decoded == n_events {
                Ok(())
            } else {
                Err(format!("decoded {decoded} of {n_events} events"))
            }
        };
        tracer
            .scope("ingest_and_store", "event", |t| (stages(t), n_events))
            .0
    });
}

/// The stream engine's parts: the projector alone on pre-interned ids, the
/// tracker alone on the recorded deltas, then the whole engine in
/// cumulative and in sliding mode.
fn stream_parts(pass: &mut Pass) {
    let Pass {
        bench,
        reference,
        tracer,
        tally,
        samples,
    } = pass;
    tally.op("traced stream parts", || {
        let mut ordered: Vec<Event> = bench.inputs.stream_prefix().to_vec();
        ordered.sort_unstable_by_key(|e| (e.ts, e.author.0, e.page.0));
        let replayed = ordered.len() as u64;
        let mut parts = |t: &mut Tracer| -> Result<(), String> {
            let (deltas, s) = t.scope("stream.projector", "event", |_| {
                let mut projector =
                    StreamProjector::with_horizon(bench.cfg.window, Some(bench.spec.horizon_s));
                let mut deltas: Vec<EdgeDelta> = Vec::new();
                for e in &ordered {
                    deltas.extend_from_slice(projector.ingest(e.author.0, e.page.0, e.ts));
                }
                (deltas, replayed)
            });
            put(
                samples,
                "stream.projector.ns_per_event",
                ns_per(s, replayed),
            );
            put(
                samples,
                "stream.projector.deltas_per_event",
                deltas.len() as f64 / replayed as f64,
            );
            let (_, s) = t.scope("stream.tracker", "delta", |_| {
                let mut tracker = TriangleTracker::new(bench.spec.cutoff);
                for d in &deltas {
                    std::hint::black_box(tracker.apply(d));
                }
                ((), deltas.len() as u64)
            });
            put(
                samples,
                "stream.tracker.ns_per_delta",
                ns_per(s, deltas.len() as u64),
            );
            let (cumulative, _) = t.scope("stream.engine.cumulative", "event", |_| {
                (bench.replay(None), replayed)
            });
            put(
                samples,
                "stream.engine.cumulative_events_per_s",
                replayed as f64 / cumulative.wall_s,
            );
            let (mut sliding, _) = t.scope("stream.engine.sliding", "event", |_| {
                (bench.replay(Some(bench.spec.horizon_s)), replayed)
            });
            for (metric, q) in [
                ("stream.engine.event_p50_us", 0.5),
                ("stream.engine.event_p99_us", 0.99),
                ("stream.engine.event_p999_us", 0.999),
            ] {
                put(
                    samples,
                    metric,
                    percentile_u32(&mut sliding.service_ns, q) as f64 / 1e3,
                );
            }
            put(
                samples,
                "stream.engine.live_edges_end",
                sliding.engine.projector().n_edges() as f64,
            );
            if sliding.alerts == reference.stream_alerts {
                Ok(())
            } else {
                Err(format!(
                    "{} alerts, the gate saw {}",
                    sliding.alerts, reference.stream_alerts
                ))
            }
        };
        tracer.scope("stream", "event", |t| (parts(t), replayed)).0
    });
}
