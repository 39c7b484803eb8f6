//! `stream-push`: open loop at a fixed aggregate rate of 500-point pushes
//! over 32 frozen sessions at ℓq = 600.

use std::path::Path;
use std::time::{Duration, Instant};

use s2g_core::{Series2Graph, StreamingScorer};

use crate::gen::{self, Family, Rng};
use crate::harness::{self, drive, ms, Running, SpanLog, Tally};
use crate::replay::{self, Layers};
use crate::score_unseen::{fit_remote, reference_model};
use crate::Workload;

const MODEL: &str = "stream";
const TRAIN_LEN: usize = 20_000;
const PATTERN: usize = 50;
const QUERY: usize = 600;
const SESSIONS: usize = 32;
const CHUNK: usize = 500;
/// Aggregate pushes per second over both generator threads: a sixth of
/// what two closed-loop clients sustained on a quiet 2-core host (about
/// 1 190/s). Other tenants cut that capacity for minutes at a time, and an
/// open loop above the capacity of the moment measures a growing backlog,
/// not the server.
const RATE: f64 = 200.0;
const FAMILY: Family = Family {
    period: 100.0,
    noise: 0.05,
};

pub struct StreamPush {
    seed: u64,
    train: Vec<f64>,
    model: Series2Graph,
    checksum: String,
}

pub struct Env {
    server: Running,
    sessions: Vec<String>,
    setup_fits_ms: Vec<f64>,
}

impl StreamPush {
    pub fn new(seed: u64) -> StreamPush {
        let train = FAMILY.series(TRAIN_LEN, &mut Rng::derive(seed, 1));
        let (model, checksum) = reference_model(&train, PATTERN);
        StreamPush {
            seed,
            train,
            model,
            checksum,
        }
    }

    /// Push `k` of session `s`: its stream's points `[k·500, (k+1)·500)`, a
    /// noisy sine with a burst planted in about one push in eight.
    fn chunk(&self, s: usize, k: usize) -> Vec<f64> {
        let mut rng = Rng::derive(self.seed, ((s as u64 + 1) << 32) | k as u64);
        let phase = Rng::derive(self.seed, 5000 + s as u64).unit();
        let mut values: Vec<f64> = (k * CHUNK..(k + 1) * CHUNK)
            .map(|i| FAMILY.at(i, phase) + FAMILY.noise * rng.normal())
            .collect();
        if rng.unit() < 0.125 {
            let at = rng.below(0, CHUNK - 150);
            gen::plant_burst(
                &mut values[at..at + 150],
                FAMILY.period,
                FAMILY.noise,
                &mut rng,
            );
        }
        values
    }
}

impl Workload for StreamPush {
    type Env = Env;

    fn route(&self) -> &'static str {
        "POST /sessions/{id}/push"
    }

    fn setup_reps(&self) -> usize {
        8
    }

    fn setup(&self, _work: &Path) -> Result<(Env, f64), String> {
        let csv = gen::csv(&self.train);
        let started = Instant::now();
        let server = Running::start(harness::server_config()).map_err(|e| e.to_string())?;
        let client = server.client();
        let fit_ms = fit_remote(&client, MODEL, PATTERN, &csv, &self.checksum)??;
        let sessions = (0..SESSIONS)
            .map(|_| {
                client
                    .open_session(MODEL, QUERY)
                    .map_err(|e| format!("open session: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seconds = started.elapsed().as_secs_f64();
        Ok((
            Env {
                server,
                sessions,
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
        // Thread t sends pushes t, t+2, t+4, … of the global schedule, so it
        // alone feeds the sessions of its parity, each strictly in order.
        let interval = 1.0 / RATE;
        drive(2, seconds, |thread, start, deadline| {
            let client = env.server.client();
            let mut tally = Tally::default();
            let mut failed_sessions = [false; SESSIONS];
            for n in (thread..).step_by(2) {
                // Stop at the deadline even when behind schedule: pushes
                // still owed then are the backlog, which the lag shows.
                let due = start + Duration::from_secs_f64(n as f64 * interval);
                if due >= deadline || Instant::now() >= deadline {
                    break;
                }
                let (s, k) = (n % SESSIONS, n / SESSIONS);
                let values = self.chunk(s, k);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let span = log.map(|l| l.root("client.push"));
                let sent = Instant::now();
                tally.lags_ms.push(ms(sent - due));
                tally.sent("push");
                let result = client.push_session(&env.sessions[s], &values);
                let done = Instant::now();
                drop(span);
                match result {
                    Ok(pairs) => {
                        tally.ok("push");
                        tally.latency(start, done, ms(done - due));
                        tally.served(start, done, CHUNK as u64);
                        if !failed_sessions[s] {
                            tally.pushes.push((s, k, gen::pairs_fingerprint(&pairs)));
                        }
                    }
                    Err(e) => {
                        // The session's server-side state is unknown from
                        // here on; stop checking it.
                        failed_sessions[s] = true;
                        tally.failed("push", format!("session {s} push {k}: {e}"));
                    }
                }
            }
            tally
        })
    }

    /// Replays every session through an in-process `StreamingScorer` and
    /// compares each push's emitted pairs with what the server returned.
    /// Sessions are independent, so the replay runs on two threads.
    fn verify(&self, tally: &mut Tally) {
        let pushed = std::mem::take(&mut tally.pushes);
        let found: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|half| {
                    let mine: Vec<_> = pushed.iter().copied().filter(|p| p.0 % 2 == half).collect();
                    scope.spawn(move || self.verify_sessions(mine))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a verifier panicked"))
                .collect()
        });
        for why in found.into_iter().flatten() {
            tally.mismatch(why);
        }
    }

    fn teardown(&self, env: Env, _work: &Path) -> Result<(), String> {
        env.server.stop().map_err(|e| e.to_string())
    }

    fn replay(
        &self,
        _tally: &Tally,
        layers: &mut Layers,
        log: &SpanLog,
    ) -> Result<f64, String> {
        // No batch scoring, codec or store here: those layers read 0.
        // Four sessions' first 41 pushes: 20 500 points each.
        let streams: Vec<Vec<f64>> = (0..4)
            .map(|s| (0..41).flat_map(|k| self.chunk(s, k)).collect())
            .collect();
        let emitted = replay::stream_kernel(&self.model, &streams, QUERY, CHUNK, layers, log)?;
        replay::fit_stages(&self.model, &self.train, 3, layers, log)?;
        replay::json_lines(&[&emitted[..]], layers, log)?;
        let bodies: Vec<String> = (0..64).map(|k| gen::csv(&self.chunk(0, k))).collect();
        replay::parse_bodies(&bodies, layers, log)?;
        let stream_ns = layers
            .get("core.stream_ns_per_point")
            .copied()
            .unwrap_or(0.0);
        Ok(stream_ns * CHUNK as f64 / 1e6)
    }
}

impl StreamPush {
    fn verify_sessions(&self, mut pushed: Vec<(usize, usize, u64)>) -> Vec<String> {
        pushed.sort_unstable();
        let mut mismatches = Vec::new();
        let mut scorer: Option<(usize, StreamingScorer)> = None;
        for (s, k, fingerprint) in pushed {
            if !matches!(&scorer, Some((current, _)) if *current == s) {
                let fresh =
                    StreamingScorer::new(self.model.clone(), QUERY).expect("query ≥ pattern");
                scorer = Some((s, fresh));
            }
            let (_, reference) = scorer.as_mut().expect("set above");
            if reference.consumed() != k * CHUNK {
                mismatches.push(format!("session {s}: push {k} recorded out of order"));
                continue;
            }
            match reference.push_batch(&self.chunk(s, k)) {
                Ok(pairs) if gen::pairs_fingerprint(&pairs) == fingerprint => {}
                _ => mismatches.push(format!(
                    "session {s} push {k}: emitted pairs differ from StreamingScorer"
                )),
            }
        }
        mismatches
    }
}
