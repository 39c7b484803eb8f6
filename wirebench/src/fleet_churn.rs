//! `fleet-churn`: one writer refitting fleet models beside one reader
//! scoring against them, with the durable store mounted and at most a third
//! of the fleet resident.

use std::path::{Path, PathBuf};
use std::time::Instant;

use s2g_core::Series2Graph;
use s2g_timeseries::TimeSeries;

use crate::gen::{self, Family, Rng};
use crate::harness::{self, child, drive, ms, Running, SpanLog, Tally};
use crate::replay::{self, Layers};
use crate::score_unseen::{fit_remote, reference_model, weighted_kernel_ms};
use crate::Workload;

const FLEET: usize = 24;
/// Registry capacity and store residency, in models: a third of the fleet.
const RESIDENT: usize = FLEET / 3;
const TRAIN_LEN: usize = 10_000;
const PATTERN: usize = 40;
const QUERY: usize = 150;
/// Reader series per fleet model.
const PER_MODEL: usize = 6;
const MIN_LEN: usize = 2_000;
const MAX_LEN: usize = 5_000;

/// Model `n` of the fleet: its own period, and two training series so that
/// every refit changes the model's version.
struct Member {
    name: String,
    csv: [String; 2],
    models: [Series2Graph; 2],
    checksums: [String; 2],
    train: [Vec<f64>; 2],
    /// Reader series and, per version, their reference profiles.
    series: Vec<Vec<f64>>,
    refs: [Vec<Vec<f64>>; 2],
}

pub struct FleetChurn {
    seed: u64,
    fleet: Vec<Member>,
}

pub struct Env {
    server: Running,
    dir: PathBuf,
    setup_fits_ms: Vec<f64>,
}

impl FleetChurn {
    pub fn new(seed: u64) -> FleetChurn {
        let mut rng = Rng::derive(seed, 3);
        let mut lengths =
            gen::stratified_lengths(FLEET * PER_MODEL, MIN_LEN, MAX_LEN, TRAIN_LEN, &mut rng)
                .into_iter();
        let fleet = (0..FLEET)
            .map(|n| {
                let family = Family {
                    period: 80.0 + 3.0 * n as f64,
                    noise: 0.05,
                };
                let train = [0, 1].map(|v| family.series(TRAIN_LEN, &mut Rng::derive(seed, 3000 + 2 * n as u64 + v)));
                let fitted = [0, 1].map(|v| reference_model(&train[v], PATTERN));
                let [(m0, c0), (m1, c1)] = fitted;
                let models = [m0, m1];
                let mut series = Vec::with_capacity(PER_MODEL);
                let mut refs = [Vec::new(), Vec::new()];
                for _ in 0..PER_MODEL {
                    let len = lengths.next().expect("one length per reader series");
                    let (values, burst) = family.with_burst(len, QUERY, 2 * QUERY, &mut rng);
                    for (v, model) in models.iter().enumerate() {
                        let profile = model
                            .anomaly_scores(&TimeSeries::from(values.as_slice()), QUERY)
                            .expect("reference scoring of a generated series");
                        let peak = crate::argmax(&profile);
                        assert!(
                            peak.abs_diff(burst) <= QUERY,
                            "seed {seed}: model {n} v{v}: planted burst at {burst} but the reference peaks at {peak}"
                        );
                        refs[v].push(profile);
                    }
                    series.push(values);
                }
                Member {
                    name: format!("fleet-{n:02}"),
                    csv: [gen::csv(&train[0]), gen::csv(&train[1])],
                    models,
                    checksums: [c0, c1],
                    train,
                    series,
                    refs,
                }
            })
            .collect();
        FleetChurn { seed, fleet }
    }

    fn config(dir: &Path, budget: u64) -> s2g_server::ServerConfig {
        let mut config = harness::server_config()
            .with_data_dir(dir)
            .with_store_budget_bytes(budget);
        config.engine = config.engine.with_registry_capacity(RESIDENT);
        config
    }
}

impl Workload for FleetChurn {
    type Env = Env;

    fn route(&self) -> &'static str {
        "POST /models/{name}/score"
    }

    fn setup_reps(&self) -> usize {
        4
    }

    /// Fits the fleet (version 0 of every model) from both connections,
    /// then rebinds on the same directory so the window starts cold. The
    /// first server's shutdown drain is not counted.
    fn setup(&self, work: &Path) -> Result<(Env, f64), String> {
        let dir = (0..)
            .map(|i| work.join(format!("fleet-{i}")))
            .find(|d| !d.exists())
            .expect("an unused directory name");
        let started = Instant::now();
        let first = Running::start(Self::config(&dir, 0)).map_err(|e| e.to_string())?;
        let fits = drive(2, 3600.0, |thread, _, _| {
            let client = first.client();
            let mut tally = Tally::default();
            for member in self.fleet.iter().skip(thread).step_by(2) {
                match fit_remote(
                    &client,
                    &member.name,
                    PATTERN,
                    &member.csv[0],
                    &member.checksums[0],
                )
                .and_then(|checked| checked)
                {
                    Ok(elapsed) => tally.fit_latencies_ms.push(elapsed),
                    Err(e) => tally.mismatch(e),
                }
            }
            tally
        });
        if let Some(e) = fits.mismatches.first() {
            return Err(format!("set-up: {e}"));
        }
        // Residency budget: the points sections of a third of the fleet.
        let storage = first
            .server()
            .engine()
            .storage()
            .ok_or("no store mounted")?;
        let largest = storage
            .list()
            .iter()
            .map(|m| m.points_bytes)
            .max()
            .unwrap_or(0);
        let fitted = started.elapsed();
        first.stop().map_err(|e| e.to_string())?;
        let rebind = Instant::now();
        let server = Running::start(Self::config(&dir, largest * RESIDENT as u64))
            .map_err(|e| e.to_string())?;
        let seconds = (fitted + rebind.elapsed()).as_secs_f64();
        Ok((
            Env {
                server,
                dir,
                setup_fits_ms: fits.fit_latencies_ms,
            },
            seconds,
        ))
    }

    fn running<'a>(&self, env: &'a Env) -> &'a Running {
        &env.server
    }

    fn setup_fits_ms<'a>(&self, env: &'a Env) -> &'a [f64] {
        &env.setup_fits_ms
    }

    fn window(&self, env: &Env, seconds: f64, log: Option<&SpanLog>) -> Tally {
        drive(2, seconds, |thread, start, deadline| {
            let client = env.server.client();
            let mut rng = Rng::derive(self.seed, 200 + thread as u64);
            // Each thread walks seeded permutations of its choices, so
            // every seed sends the same mix.
            let choices = if thread == 0 {
                FLEET
            } else {
                FLEET * PER_MODEL
            };
            let mut deck = (0..).flat_map(|_| {
                let mut order: Vec<usize> = (0..choices).collect();
                gen::shuffle(&mut order, &mut rng);
                order
            });
            let mut tally = Tally::default();
            let mut last = Instant::now();
            if thread == 0 {
                // The writer: the only fitter, so it knows every model's
                // current version.
                let mut version = [0usize; FLEET];
                while Instant::now() < deadline {
                    let n = deck.next().expect("the deck never ends");
                    let (member, v) = (&self.fleet[n], 1 - version[n]);
                    let span = log.map(|l| l.root("client.fit"));
                    let sent = Instant::now();
                    tally.lags_ms.push(ms(sent - last));
                    tally.sent("fit");
                    let result = fit_remote(
                        &client,
                        &member.name,
                        PATTERN,
                        &member.csv[v],
                        &member.checksums[v],
                    );
                    last = Instant::now();
                    drop(span);
                    match result {
                        Ok(Ok(elapsed)) => {
                            tally.ok("fit");
                            tally.fit_latencies_ms.push(elapsed);
                            tally.served(start, last, TRAIN_LEN as u64);
                            version[n] = v;
                        }
                        Ok(Err(mismatch)) => tally.mismatch(mismatch),
                        Err(e) => tally.failed("fit", e),
                    }
                }
                return tally;
            }
            let registry = env.server.server().engine().registry();
            while Instant::now() < deadline {
                let pick = deck.next().expect("the deck never ends");
                let (n, j) = (pick / PER_MODEL, pick % PER_MODEL);
                let member = &self.fleet[n];
                let span = log.map(|l| l.root("client.score"));
                if let Some(probe) = child(span.as_ref(), "registry.peek") {
                    tally.registry_lookups += 1;
                    tally.registry_hits += u64::from(registry.peek(&member.name).is_some());
                    drop(probe);
                }
                let sent = Instant::now();
                tally.lags_ms.push(ms(sent - last));
                tally.sent("score");
                let result =
                    client.score(&member.name, QUERY, std::slice::from_ref(&member.series[j]));
                last = Instant::now();
                drop(span);
                match result.as_deref() {
                    Ok([Ok(scores)]) => {
                        // Either version may be current when the read lands.
                        if member.refs.iter().any(|r| crate::same_bits(scores, &r[j])) {
                            tally.ok("score");
                            tally.latency(start, last, ms(last - sent));
                            tally.served(start, last, member.series[j].len() as u64);
                            *tally.uses.entry(n * PER_MODEL + j).or_default() += 1;
                        } else {
                            tally.mismatch(format!(
                                "{} series {j}: profile matches neither version",
                                member.name
                            ));
                        }
                    }
                    Ok(slots) => tally.failed("score", format!("{}: {slots:?}", member.name)),
                    Err(e) => tally.failed("score", format!("{}: {e}", member.name)),
                }
            }
            tally
        })
    }

    fn teardown(&self, env: Env, _work: &Path) -> Result<(), String> {
        env.server.stop().map_err(|e| e.to_string())?;
        std::fs::remove_dir_all(&env.dir).map_err(|e| format!("{}: {e}", env.dir.display()))
    }

    fn replay(
        &self,
        tally: &Tally,
        layers: &mut Layers,
        log: &SpanLog,
    ) -> Result<f64, String> {
        // Score kernel per reader input, against version 0 of its model.
        let jobs: Vec<(&Series2Graph, &[f64])> = self
            .fleet
            .iter()
            .flat_map(|m| m.series.iter().map(move |s| (&m.models[0], s.as_slice())))
            .collect();
        let kernel_ms = replay::score_kernel(&jobs, QUERY, layers, log)?;
        // No sessions here: the streaming layer reads 0.
        let first = &self.fleet[0];
        replay::fit_stages(&first.models[0], &first.train[0], 3, layers, log)?;
        replay::codec_roundtrip(&first.models[0], 5, layers, log)?;
        let profiles: Vec<&[f64]> = self
            .fleet
            .iter()
            .flat_map(|m| m.refs[0].iter().map(Vec::as_slice))
            .collect();
        replay::json_lines(&profiles, layers, log)?;
        let bodies: Vec<String> = self.fleet[..4].iter().map(|m| m.csv[0].clone()).collect();
        replay::parse_bodies(&bodies, layers, log)?;
        Ok(weighted_kernel_ms(tally, &kernel_ms))
    }
}
