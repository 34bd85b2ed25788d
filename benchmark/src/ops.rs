//! The end-to-end operations, the correctness gate that runs each of them
//! once before any timing (it doubles as the discarded warm-up), and the
//! timed pass. Every gate check, timed repetition and CLI child is counted
//! as one operation; a panic, non-zero exit or mismatch is a failed one.

use std::collections::HashSet;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::adapter::*;
use crate::calib::{self, Class};
use crate::child::{run_pipeline_child, ChildRun};
use crate::report::TimedSamples;
use crate::workload::{author_id, planted_triplets, Inputs, Spec, DEFAULT_SEED};

/// Operations attempted and failed, with the reason for each failure.
#[derive(Clone, Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Run one operation: `Err` and panics count as failed.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let reason = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(_) => "panicked".to_string(),
        };
        self.failed += 1;
        self.failures.push(format!("{what}: {reason}"));
        None
    }
}

/// What must be identical between engines: the run stats, the survey
/// report and every triplet, `T` and `C` by bit pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub stats: [u64; 8],
    pub max_min_weight: u64,
    pub log_hist: Vec<u64>,
    pub digest: u64,
}

/// Digest of the surveyed triangles and validated triplets, in order.
pub fn digest(triangles: &[SurveyedTriangle], triplets: &[TripletMetrics]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for t in triangles {
        let tri = &t.triangle;
        for v in [
            tri.a as u64,
            tri.b as u64,
            tri.c as u64,
            tri.w_ab,
            tri.w_ac,
            tri.w_bc,
        ] {
            h.write_u64(v);
        }
        h.write_u64(t.min_weight);
        h.write_u64(t.t_score.to_bits());
    }
    for m in triplets {
        for a in m.authors {
            h.write_u32(a.0);
        }
        for v in m.ci_weights.iter().chain(&m.page_counts) {
            h.write_u64(*v);
        }
        for v in [
            m.min_ci_weight,
            m.t.to_bits(),
            m.hyper_weight,
            m.c.to_bits(),
        ] {
            h.write_u64(v);
        }
    }
    h.finish()
}

pub fn fingerprint(out: &PipelineOutput) -> Fingerprint {
    let s = &out.stats;
    Fingerprint {
        stats: [
            s.comments_reviewed,
            s.total_authors as u64,
            s.projected_authors as u64,
            s.ci_edges,
            s.ci_edges_after_threshold,
            s.triangles_examined,
            s.triangles_kept,
            s.triplets_validated,
        ],
        max_min_weight: out.survey.max_min_weight,
        log_hist: out.survey.min_weight_log_hist.clone(),
        digest: digest(&out.survey.triangles, &out.triplets),
    }
}

fn same(engine: &str, got: &Fingerprint, want: &Fingerprint) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{engine} differs from resident: {got:?} vs {want:?}"
        ))
    }
}

/// One workload's inputs, configuration and scratch space.
pub struct Bench<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub cfg: PipelineConfig,
    pub cli: &'a Path,
    pub scratch: &'a Path,
    pub seed: u64,
    /// 1 at full scale, 16 under `--smoke`.
    pub scale_div: usize,
}

/// What the gate established and every later repetition is compared to.
pub struct Reference {
    pub fp: Fingerprint,
    pub cli_stdout: Vec<u8>,
    pub stream_alerts: u64,
    /// Wall of the gate's ranks1 run, the first in the process.
    pub first_ranks1_s: f64,
}

/// One full replay through `StreamEngine::ingest`, one event at a time,
/// each call timed.
pub struct Replay {
    pub wall_s: f64,
    pub service_ns: Vec<u32>,
    pub alerts: u64,
    pub engine: StreamEngine,
}

impl Bench<'_> {
    /// The spill engine's shuffle budget, shrunk with the input so that a
    /// smoke run still has to spill.
    pub fn spill_budget(&self) -> usize {
        self.spec.spill_budget / self.scale_div
    }

    pub fn n_events(&self) -> f64 {
        self.inputs.events.len() as f64
    }

    pub fn resident(&self) -> PipelineOutput {
        run_resident(
            &self.cfg,
            self.inputs.n_authors,
            self.inputs.n_pages,
            &self.inputs.events,
        )
    }

    pub fn ranks(&self, nranks: usize, budget: Option<usize>) -> PipelineOutput {
        run_ranks(
            &self.cfg,
            nranks,
            budget,
            self.inputs.n_authors,
            &self.inputs.events,
        )
    }

    pub fn cli(&self, input_flag: &str) -> Result<ChildRun, String> {
        let input = match input_flag {
            "--input" => &self.inputs.ndjson,
            _ => &self.inputs.snapshot,
        };
        let stdout = self.scratch.join(format!("{}.stdout", self.spec.name));
        run_pipeline_child(
            self.cli,
            input_flag,
            input,
            self.spec.window_s,
            self.spec.cutoff,
            &stdout,
        )
    }

    pub fn replay(&self, horizon: Option<i64>) -> Replay {
        let records = &self.inputs.stream_records;
        let mut engine = StreamEngine::new(StreamConfig {
            window: self.cfg.window,
            min_triangle_weight: self.spec.cutoff,
            min_t_score: 0.0,
            horizon,
            checkpoint_every: None,
        });
        let mut service_ns = Vec::with_capacity(records.len());
        let mut alerts = 0u64;
        let start = Instant::now();
        for r in records {
            let t = Instant::now();
            alerts += engine.ingest(r).len() as u64;
            service_ns.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        Replay {
            wall_s: start.elapsed().as_secs_f64(),
            service_ns,
            alerts,
            engine,
        }
    }

    // ------------------------------------------------------------ the gate

    fn check_resident(&self, out: &PipelineOutput) -> Result<(), String> {
        let s = &out.stats;
        if s.comments_reviewed != self.inputs.events.len() as u64 {
            return Err(format!(
                "reviewed {} of {} events",
                s.comments_reviewed,
                self.inputs.events.len()
            ));
        }
        for want in planted_triplets(&self.inputs.cliques) {
            let found = out
                .triplets
                .binary_search_by_key(&want, |m| m.authors.map(|a| a.0));
            let kept = found.map_err(|_| format!("planted triplet {want:?} not kept"))?;
            let got = out.triplets[kept].min_ci_weight;
            if got != self.inputs.bursts_per_clique as u64 {
                return Err(format!("planted triplet {want:?} has min w' {got}"));
            }
        }
        if self.scale_div != 1 {
            return Ok(());
        }
        let f = &self.spec.floors;
        if s.ci_edges < f.ci_edges
            || s.triangles_examined < f.triangles_examined
            || s.triplets_validated < f.triplets
        {
            return Err(format!("shape floor broken: {s:?} vs {f:?}"));
        }
        let z = &self.spec.frozen;
        let got = (s.ci_edges, s.triangles_examined, s.triangles_kept);
        if self.seed == DEFAULT_SEED && got != (z.ci_edges, z.triangles_examined, z.triangles_kept)
        {
            return Err(format!("frozen counts moved: got {got:?}, frozen {z:?}"));
        }
        Ok(())
    }

    /// The CLI report names every planted triplet with the planted weight.
    fn check_cli_stdout(&self, stdout: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(stdout).map_err(|e| format!("stdout not utf-8: {e}"))?;
        let reviewed = format!("comments reviewed      {}", self.inputs.events.len());
        if text.lines().next() != Some(reviewed.as_str()) {
            return Err(format!("first line is not {reviewed:?}"));
        }
        let rows: HashSet<([u32; 3], u64)> = text
            .lines()
            .filter_map(|line| {
                let f: Vec<&str> = line.split('\t').collect();
                let mut ids = [
                    author_id(f.first()?)?,
                    author_id(f.get(1)?)?,
                    author_id(f.get(2)?)?,
                ];
                ids.sort_unstable();
                Some((ids, f.get(3)?.parse().ok()?))
            })
            .collect();
        let weight = self.inputs.bursts_per_clique as u64;
        match planted_triplets(&self.inputs.cliques)
            .into_iter()
            .find(|t| !rows.contains(&(*t, weight)))
        {
            Some(missing) => Err(format!(
                "planted triplet {missing:?} missing from the CLI report"
            )),
            None => Ok(()),
        }
    }

    /// Alerts must cover every clique whose bursts all fall inside the
    /// replayed prefix and within one horizon of each other.
    fn check_sliding_alerts(&self, replay: &Replay) -> Result<(), String> {
        let names = replay.engine.authors();
        let fired: HashSet<[u32; 3]> = replay
            .engine
            .fired_triplets()
            .into_iter()
            .filter_map(|t| {
                let mut ids = [
                    author_id(names.name(t[0]))?,
                    author_id(names.name(t[1]))?,
                    author_id(names.name(t[2]))?,
                ];
                ids.sort_unstable();
                Some(ids)
            })
            .collect();
        let reach = self.spec.horizon_s - self.spec.window_s;
        let whole: Vec<Vec<u32>> = self
            .inputs
            .cliques
            .iter()
            .filter(|members| {
                let ts: Vec<i64> = self
                    .inputs
                    .stream_prefix()
                    .iter()
                    .filter(|e| e.author.0 == members[0])
                    .map(|e| e.ts)
                    .collect();
                let span = ts
                    .iter()
                    .max()
                    .zip(ts.iter().min())
                    .map_or(0, |(hi, lo)| hi - lo);
                ts.len() as u32 == self.inputs.bursts_per_clique && span + 50 < reach
            })
            .cloned()
            .collect();
        match planted_triplets(&whole)
            .into_iter()
            .find(|t| !fired.contains(t))
        {
            Some(missing) => Err(format!("no alert for planted triplet {missing:?}")),
            None => Ok(()),
        }
    }

    /// The cumulative-mode CI graph equals the batch projection of the
    /// same prefix (edge for edge, after mapping the engine's ids back).
    fn check_cumulative_snapshot(&self, replay: &Replay) -> Result<(), String> {
        let names = replay.engine.authors();
        let mut got: Vec<(u32, u32, u64)> = Vec::new();
        for (x, y, w) in replay.engine.snapshot().edges() {
            let (x, y) = author_id(names.name(x))
                .zip(author_id(names.name(y)))
                .ok_or("unexpected author name")?;
            got.push((x.min(y), x.max(y), w));
        }
        got.sort_unstable();
        let btm = Btm::from_events(
            self.inputs.n_authors,
            self.inputs.n_pages,
            self.inputs.stream_prefix(),
        );
        let mut want: Vec<(u32, u32, u64)> = project(&btm, self.cfg.window).edges().collect();
        want.sort_unstable();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "cumulative snapshot has {} edges, batch projection {}",
                got.len(),
                want.len()
            ))
        }
    }

    /// Run every operation once and check it; `None` when no reference
    /// could be established (nothing can be timed then).
    pub fn gate(&self, tally: &mut Tally) -> Option<Reference> {
        let fp = tally.op("gate resident", || {
            let out = self.resident();
            self.check_resident(&out)?;
            Ok(fingerprint(&out))
        })?;
        let start = Instant::now();
        tally.op("gate ranks1 = resident", || {
            same("ranks1", &fingerprint(&self.ranks(1, None)), &fp)
        });
        let first_ranks1_s = start.elapsed().as_secs_f64();
        tally.op("gate ranks2 = resident", || {
            same("ranks2", &fingerprint(&self.ranks(2, None)), &fp)
        });
        tally.op("gate spill = resident, and spills", || {
            obs::reset();
            obs::Obs::enable();
            let out = self.ranks(1, Some(self.spill_budget()));
            obs::Obs::disable();
            same("spill", &fingerprint(&out), &fp)?;
            match obs::snapshot().counter("shuffle.spilled_bytes") {
                Some(bytes) if bytes > 0 => Ok(()),
                other => Err(format!(
                    "nothing spilled under a {} B budget ({other:?})",
                    self.spill_budget()
                )),
            }
        });
        let cli_stdout = tally.op("gate cli ndjson", || {
            let run = self.cli("--input")?;
            self.check_cli_stdout(&run.stdout)?;
            Ok(run.stdout)
        })?;
        tally.op("gate cli snapshot = ndjson", || {
            if self.cli("--from-snapshot")?.stdout == cli_stdout {
                Ok(())
            } else {
                Err("snapshot stdout differs from NDJSON stdout".to_string())
            }
        });
        let stream_alerts = tally.op("gate stream sliding alerts", || {
            let replay = self.replay(Some(self.spec.horizon_s));
            self.check_sliding_alerts(&replay)?;
            Ok(replay.alerts)
        })?;
        tally.op("gate stream cumulative = batch projection", || {
            self.check_cumulative_snapshot(&self.replay(None))
        });
        Some(Reference {
            fp,
            cli_stdout,
            stream_alerts,
            first_ranks1_s,
        })
    }

    // ------------------------------------------------------ the timed pass

    fn timed_engine(
        &self,
        engine: &str,
        reference: &Reference,
        run: impl FnOnce() -> PipelineOutput,
    ) -> Result<f64, String> {
        let start = Instant::now();
        let out = run();
        let wall_s = start.elapsed().as_secs_f64();
        same(engine, &fingerprint(&out), &reference.fp)?;
        Ok(self.n_events() / wall_s)
    }

    fn timed_cli(&self, input_flag: &str, reference: &Reference) -> Result<ChildRun, String> {
        let run = self.cli(input_flag)?;
        if run.stdout != reference.cli_stdout {
            return Err(format!("pipeline {input_flag} stdout changed between runs"));
        }
        Ok(run)
    }

    /// One repetition of every end-to-end operation, one at a time, each
    /// checked against the gate's reference and bracketed by calibration
    /// readings; appends one sample per metric.
    pub fn timed_cycle(
        &self,
        reference: &Reference,
        tally: &mut Tally,
        samples: &mut TimedSamples,
    ) {
        let mut before = calib::read();
        let mut record = |class: Class, measured: &[(&'static str, Option<f64>)]| {
            let after = calib::read();
            for (name, raw) in measured {
                if let Some(raw) = raw {
                    samples.record(name, *raw, calib::slowdown(class, before, after));
                }
            }
            before = after;
        };
        record(
            Class::Mixed,
            &[(
                "resident_events_per_s",
                tally.op("resident", || {
                    self.timed_engine("resident", reference, || self.resident())
                }),
            )],
        );
        record(
            Class::SortBound,
            &[(
                "ranks1_events_per_s",
                tally.op("ranks1", || {
                    self.timed_engine("ranks1", reference, || self.ranks(1, None))
                }),
            )],
        );
        let budget = Some(self.spill_budget());
        record(
            Class::SortBound,
            &[(
                "spill_events_per_s",
                tally.op("spill", || {
                    self.timed_engine("spill", reference, || self.ranks(1, budget))
                }),
            )],
        );
        let ndjson = tally.op("cli ndjson", || self.timed_cli("--input", reference));
        record(
            Class::Mixed,
            &[
                ("cli_ndjson_wall_s", ndjson.as_ref().map(|r| r.wall_s)),
                ("cli_peak_rss_mb", ndjson.as_ref().map(|r| r.peak_rss_mb)),
            ],
        );
        record(
            Class::Mixed,
            &[(
                "cli_snapshot_wall_s",
                tally
                    .op("cli snapshot", || {
                        self.timed_cli("--from-snapshot", reference)
                    })
                    .map(|r| r.wall_s),
            )],
        );
        let stream = tally.op("stream replay", || {
            let replay = self.replay(Some(self.spec.horizon_s));
            if replay.alerts != reference.stream_alerts {
                return Err(format!(
                    "{} alerts, the gate saw {}",
                    replay.alerts, reference.stream_alerts
                ));
            }
            Ok(replay.service_ns.len() as f64 / replay.wall_s)
        });
        record(Class::Mixed, &[("stream_events_per_s", stream)]);
    }
}
