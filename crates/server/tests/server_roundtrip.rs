//! Cross-socket acceptance tests: everything a remote client does through
//! `s2g-server` must be **bit-for-bit identical** to the same operation done
//! in-process, including under concurrent load.

use std::sync::Arc;
use std::thread;

use s2g_core::{S2gConfig, Series2Graph, StreamingScorer};
use s2g_engine::codec;
use s2g_server::{Client, Server, ServerConfig, ShutdownHandle};
use s2g_timeseries::io as ts_io;

/// Starts a server on an ephemeral loopback port; returns the client
/// address, a shutdown handle and the serving thread.
fn start_server(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

/// CSV text of a sine series with a doubled-frequency burst.
fn burst_csv(n: usize, burst_at: usize, phase: f64) -> String {
    (0..n)
        .map(|i| {
            let v = if (burst_at..burst_at + 150).contains(&i) {
                (std::f64::consts::TAU * i as f64 / 25.0 + phase).sin()
            } else {
                (std::f64::consts::TAU * i as f64 / 100.0 + phase).sin()
            };
            format!("{v}\n")
        })
        .collect()
}

#[test]
fn socket_fit_and_score_bit_identical_with_concurrent_clients() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let train_csv = burst_csv(4000, 2600, 0.0);

    // In-process reference: same CSV text, same parser, same config.
    let train = ts_io::parse_series(&train_csv).unwrap();
    let reference = Series2Graph::fit(&train, &S2gConfig::new(50)).unwrap();

    // Remote fit from the posted CSV body.
    let client = Client::new(addr.clone());
    let info = client
        .fit_model("acceptance", "pattern_length=50", &train_csv)
        .unwrap();

    // The server's checksum is the FNV-1a trailer of the encoded model: a
    // match proves the *model* itself is bit-identical, not just the scores.
    let expected_checksum = format!("{:#018x}", codec::model_checksum(&reference));
    assert_eq!(
        info.get("checksum").unwrap().as_str().unwrap(),
        expected_checksum
    );
    assert_eq!(info.get("train_len").unwrap().as_usize(), Some(4000));

    // Six concurrent clients (> the required 4), each scoring a different
    // probe series over its own connection.
    let probes: Vec<Vec<f64>> = (0..6)
        .map(|k| {
            ts_io::parse_series(&burst_csv(1200 + 50 * k, 400 + 60 * k, 0.1 * k as f64))
                .unwrap()
                .into_vec()
        })
        .collect();
    let reference = Arc::new(reference);
    let workers: Vec<_> = probes
        .into_iter()
        .map(|probe| {
            let client = Client::new(addr.clone());
            let reference = Arc::clone(&reference);
            thread::spawn(move || {
                let remote = client
                    .score("acceptance", 150, std::slice::from_ref(&probe))
                    .unwrap();
                let remote = remote[0].as_ref().unwrap();
                let local = reference.anomaly_scores(&probe.into(), 150).unwrap();
                assert_eq!(remote.len(), local.len());
                for (r, l) in remote.iter().zip(&local) {
                    assert_eq!(
                        r.to_bits(),
                        l.to_bits(),
                        "socket score must be bit-identical to in-process score"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn socket_scores_an_unseen_series_of_the_training_length() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let train_csv = burst_csv(4000, 1000, 0.0);
    let client = Client::new(addr);
    let info = client
        .fit_model("same-length", "pattern_length=50", &train_csv)
        .unwrap();
    // `seed` is no fit parameter: like any unknown parameter it is
    // ignored, and the fit is the default one byte for byte.
    let seeded = client
        .fit_model("seeded", "pattern_length=50&seed=7", &train_csv)
        .unwrap();
    assert_eq!(seeded.get("checksum"), info.get("checksum"));

    // Same length as the training series, burst somewhere else: the reply
    // must score this series, not replay the training scores.
    let probe = ts_io::parse_series(&burst_csv(4000, 3000, 0.0))
        .unwrap()
        .into_vec();
    let remote = client
        .score("same-length", 150, std::slice::from_ref(&probe))
        .unwrap();
    let remote = remote[0].as_ref().unwrap();
    let peak = (0..remote.len())
        .max_by(|&a, &b| remote[a].total_cmp(&remote[b]))
        .unwrap();
    assert!(
        (3000i64 - peak as i64).abs() <= 150,
        "burst planted at 3000, scores peak at {peak}"
    );

    let train = ts_io::parse_series(&train_csv).unwrap();
    let reference = Series2Graph::fit(&train, &S2gConfig::new(50)).unwrap();
    let local = reference.anomaly_scores(&probe.into(), 150).unwrap();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(remote), bits(&local));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn socket_batch_scoring_is_submission_ordered() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let train_csv = burst_csv(3000, 1800, 0.0);
    let client = Client::new(addr);
    client
        .fit_model("batch", "pattern_length=40", &train_csv)
        .unwrap();

    // One request carrying five series of distinct lengths: results must
    // come back in submission order (index i ↔ series i).
    let batch: Vec<Vec<f64>> = (0..5)
        .map(|k| {
            ts_io::parse_series(&burst_csv(900 + 37 * k, 300, 0.2 * k as f64))
                .unwrap()
                .into_vec()
        })
        .collect();
    let results = client.score("batch", 120, &batch).unwrap();
    assert_eq!(results.len(), 5);
    for (k, result) in results.iter().enumerate() {
        let scores = result.as_ref().unwrap();
        assert_eq!(
            scores.len(),
            (900 + 37 * k) - 120 + 1,
            "result {k} must belong to series {k}"
        );
    }

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn socket_sessions_match_in_process_streaming() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let train_csv = burst_csv(3000, 9999, 0.0); // no burst: clean train
    let stream_csv = burst_csv(700, 350, 0.05);
    let client = Client::new(addr);
    client
        .fit_model("streamed", "pattern_length=40", &train_csv)
        .unwrap();

    // In-process reference: StreamingScorer over the identical model.
    let train = ts_io::parse_series(&train_csv).unwrap();
    let model = Series2Graph::fit(&train, &S2gConfig::new(40)).unwrap();
    let mut reference = StreamingScorer::new(model, 160).unwrap();
    let values = ts_io::parse_series(&stream_csv).unwrap().into_vec();
    let expected = reference.push_batch(&values).unwrap();

    // Remote session, pushed in uneven chunks.
    let session = client.open_session("streamed", 160).unwrap();
    let mut emitted = Vec::new();
    for chunk in values.chunks(333) {
        emitted.extend(client.push_session(&session, chunk).unwrap());
    }
    assert_eq!(emitted.len(), expected.len());
    for ((rs, rv), (es, ev)) in emitted.iter().zip(&expected) {
        assert_eq!(rs, es);
        assert_eq!(
            rv.to_bits(),
            ev.to_bits(),
            "streamed normality must be bit-identical"
        );
    }
    assert_eq!(client.close_session(&session).unwrap(), values.len());

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn model_lifecycle_over_the_wire() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr);

    assert!(client.list_models().unwrap().is_empty());
    client
        .fit_model("alpha", "pattern_length=40", &burst_csv(2000, 9999, 0.0))
        .unwrap();
    client
        .fit_model("beta", "pattern_length=50", &burst_csv(2200, 9999, 0.3))
        .unwrap();

    // GET /models lists both, in registration order.
    let models = client.list_models().unwrap();
    let names: Vec<&str> = models
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["alpha", "beta"]);
    let fitted: Vec<usize> = models
        .iter()
        .map(|m| m.get("fitted_at").unwrap().as_usize().unwrap())
        .collect();
    assert!(fitted[0] < fitted[1]);

    // GET /models/{name} metadata agrees with the fit response.
    let beta = client.model_info("beta").unwrap();
    assert_eq!(beta.get("pattern_length").unwrap().as_usize(), Some(50));
    assert_eq!(beta.get("train_len").unwrap().as_usize(), Some(2200));
    assert!(beta
        .get("checksum")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("0x"));

    // Health reflects the registry.
    let health = client.health().unwrap();
    assert_eq!(health.get("models").unwrap().as_usize(), Some(2));

    // DELETE removes exactly one model.
    client.delete_model("alpha").unwrap();
    let models = client.list_models().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].get("name").unwrap().as_str(), Some("beta"));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn graceful_shutdown_by_handle_and_by_endpoint() {
    // In-process SIGTERM-equivalent: flag + connect-to-self wakeup.
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr);
    client.health().unwrap();
    handle.shutdown();
    server_thread.join().unwrap();

    // Remote stop: POST /admin/shutdown.
    let (addr, _handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr.clone());
    client.health().unwrap();
    client.shutdown_server().unwrap();
    server_thread.join().unwrap();
    // The listener is gone: new connections are refused.
    assert!(Client::new(addr).health().is_err());
}
