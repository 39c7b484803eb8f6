//! `score-unseen`: closed loop, two clients, batch-scoring unseen series of
//! mixed lengths against one model.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::codec;
use s2g_timeseries::TimeSeries;

use crate::gen::{self, Family, Rng};
use crate::harness::{self, child, drive, ms, Running, SpanLog, Tally};
use crate::replay::{self, Layers};
use crate::Workload;

const MODEL: &str = "unseen";
const TRAIN_LEN: usize = 20_000;
const PATTERN: usize = 50;
const QUERY: usize = 150;
/// Distinct unseen series per run; each request draws from them.
const POOL: usize = 48;
const MIN_LEN: usize = 5_000;
const MAX_LEN: usize = 40_000;
/// Series per request in one round of the request deck: every round sends
/// each pool series once, in 31 requests of 1–4 series.
const ROUND: [usize; 31] = [
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 4, 4,
];
/// Rounds in the deck; the clients wrap around past its end.
const ROUNDS: usize = 64;
const FAMILY: Family = Family {
    period: 100.0,
    noise: 0.05,
};

pub struct ScoreUnseen {
    train: Vec<f64>,
    model: Series2Graph,
    checksum: String,
    pool: Vec<Vec<f64>>,
    /// Reference anomaly profile of each pool series.
    refs: Vec<Vec<f64>>,
    /// The requests both clients take turns drawing, as pool indices: the
    /// same mix of sizes for every seed, in a seeded order.
    deck: Vec<Vec<usize>>,
}

pub struct Env {
    server: Running,
    setup_fits_ms: Vec<f64>,
}

/// Fits the model a server will fit from the same values, and its checksum
/// in the protocol's hex form.
pub fn reference_model(values: &[f64], pattern: usize) -> (Series2Graph, String) {
    let model = Series2Graph::fit(&TimeSeries::from(values), &S2gConfig::new(pattern))
        .expect("generated training series fit");
    let checksum = format!("{:#018x}", codec::model_checksum(&model));
    (model, checksum)
}

/// Fits `csv` over the wire. The outer error is a failed request; the
/// inner one a model whose checksum differs from the reference's. Returns
/// the client-observed latency in milliseconds.
pub fn fit_remote(
    client: &s2g_server::Client,
    name: &str,
    pattern: usize,
    csv: &str,
    checksum: &str,
) -> Result<Result<f64, String>, String> {
    let started = Instant::now();
    let info = client
        .fit_model(name, &format!("pattern_length={pattern}"), csv)
        .map_err(|e| format!("fit {name}: {e}"))?;
    let elapsed = ms(started.elapsed());
    Ok(
        match info.get("checksum").and_then(s2g_server::Json::as_str) {
            Some(c) if c == checksum => Ok(elapsed),
            other => Err(format!(
                "fit {name}: checksum {other:?}, reference {checksum}"
            )),
        },
    )
}

impl ScoreUnseen {
    pub fn new(seed: u64) -> ScoreUnseen {
        let train = FAMILY.series(TRAIN_LEN, &mut Rng::derive(seed, 1));
        let (model, checksum) = reference_model(&train, PATTERN);
        let mut rng = Rng::derive(seed, 2);
        let lengths = gen::stratified_lengths(POOL, MIN_LEN, MAX_LEN, TRAIN_LEN, &mut rng);
        let mut pool = Vec::with_capacity(POOL);
        let mut refs = Vec::with_capacity(POOL);
        for len in lengths {
            let (series, burst) = FAMILY.with_burst(len, QUERY, 2 * QUERY, &mut rng);
            let profile = model
                .anomaly_scores(&TimeSeries::from(series.as_slice()), QUERY)
                .expect("reference scoring of a generated series");
            let peak = crate::argmax(&profile);
            assert!(
                peak.abs_diff(burst) <= QUERY,
                "seed {seed}: planted burst at {burst} but the reference peaks at {peak}"
            );
            pool.push(series);
            refs.push(profile);
        }
        let mut deck = Vec::with_capacity(ROUNDS * ROUND.len());
        for _ in 0..ROUNDS {
            let mut order: Vec<usize> = (0..POOL).collect();
            gen::shuffle(&mut order, &mut rng);
            let mut sizes = ROUND;
            gen::shuffle(&mut sizes, &mut rng);
            let mut rest = order.as_slice();
            for k in sizes {
                let (batch, tail) = rest.split_at(k);
                deck.push(batch.to_vec());
                rest = tail;
            }
        }
        ScoreUnseen {
            deck,
            train,
            model,
            checksum,
            pool,
            refs,
        }
    }
}

impl Workload for ScoreUnseen {
    type Env = Env;

    fn route(&self) -> &'static str {
        "POST /models/{name}/score"
    }

    fn setup_reps(&self) -> usize {
        8
    }

    fn setup(&self, _work: &Path) -> Result<(Env, f64), String> {
        let csv = gen::csv(&self.train);
        let started = Instant::now();
        let server = Running::start(harness::server_config()).map_err(|e| e.to_string())?;
        let fit_ms = fit_remote(&server.client(), MODEL, PATTERN, &csv, &self.checksum)??;
        let seconds = started.elapsed().as_secs_f64();
        Ok((
            Env {
                server,
                setup_fits_ms: vec![fit_ms],
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
        let cursor = AtomicUsize::new(0);
        drive(2, seconds, |_thread, start, deadline| {
            let client = env.server.client();
            let registry = env.server.server().engine().registry();
            let mut tally = Tally::default();
            let mut last = Instant::now();
            while Instant::now() < deadline {
                let picks = &self.deck[cursor.fetch_add(1, Ordering::Relaxed) % self.deck.len()];
                let batch: Vec<Vec<f64>> = picks.iter().map(|&i| self.pool[i].clone()).collect();
                let span = log.map(|l| l.root("client.score"));
                if let Some(probe) = child(span.as_ref(), "registry.peek") {
                    tally.registry_lookups += 1;
                    tally.registry_hits += u64::from(registry.peek(MODEL).is_some());
                    drop(probe);
                }
                let sent = Instant::now();
                tally.lags_ms.push(ms(sent - last));
                tally.sent("score");
                let result = client.score(MODEL, QUERY, &batch);
                last = Instant::now();
                drop(span);
                let slots = match result {
                    Ok(slots) => slots,
                    Err(e) => {
                        tally.failed("score", e.to_string());
                        continue;
                    }
                };
                // A request fails once, however many of its slots erred.
                let mut ok = true;
                let mut errors = Vec::new();
                for (slot, &i) in slots.iter().zip(picks) {
                    match slot {
                        Ok(scores) if crate::same_bits(scores, &self.refs[i]) => {}
                        Ok(_) => {
                            tally.mismatch(format!(
                                "series {i}: profile differs from anomaly_scores"
                            ));
                            ok = false;
                        }
                        Err((code, message)) => {
                            errors.push(format!("series {i}: {code} {message}"));
                            ok = false;
                        }
                    }
                }
                if !errors.is_empty() {
                    tally.failed("score", errors.join("; "));
                }
                if ok {
                    tally.ok("score");
                    tally.latency(start, last, ms(last - sent));
                    let points = picks.iter().map(|&i| self.pool[i].len() as u64).sum();
                    tally.served(start, last, points);
                    for &i in picks {
                        *tally.uses.entry(i).or_default() += 1;
                    }
                }
            }
            tally
        })
    }

    fn teardown(&self, env: Env, _work: &Path) -> Result<(), String> {
        env.server.stop().map_err(|e| e.to_string())
    }

    fn replay(
        &self,
        tally: &Tally,
        layers: &mut Layers,
        log: &SpanLog,
    ) -> Result<f64, String> {
        // No sessions, codec or store here: those layers read 0.
        let jobs: Vec<(&Series2Graph, &[f64])> = self
            .pool
            .iter()
            .map(|s| (&self.model, s.as_slice()))
            .collect();
        let kernel_ms = replay::score_kernel(&jobs, QUERY, layers, log)?;
        replay::fit_stages(&self.model, &self.train, 3, layers, log)?;
        let profiles: Vec<&[f64]> = self.refs.iter().map(Vec::as_slice).collect();
        replay::json_lines(&profiles, layers, log)?;
        let bodies: Vec<String> = self.pool[..8].iter().map(|s| gen::csv(s)).collect();
        replay::parse_bodies(&bodies, layers, log)?;
        Ok(weighted_kernel_ms(tally, &kernel_ms))
    }
}

/// Replayed kernel time of the average pool task the window sent: each
/// input's replay time weighted by how often it was scored.
pub fn weighted_kernel_ms(tally: &Tally, kernel_ms: &[f64]) -> f64 {
    let (mut total, mut tasks) = (0.0, 0u64);
    for (&input, &n) in &tally.uses {
        total += kernel_ms[input] * n as f64;
        tasks += n;
    }
    total / tasks.max(1) as f64
}
