//! Persistence acceptance tests: a saved-then-loaded model must be
//! indistinguishable — bit for bit — from the in-memory model it came from,
//! and damaged files must be rejected, never misread.

use s2g_core::config::BandwidthRule;
use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::codec::{self, FORMAT_VERSION, MAGIC};
use s2g_engine::Error;
use s2g_timeseries::TimeSeries;

fn series_with_burst(n: usize, burst_at: usize, burst_len: usize) -> TimeSeries {
    let mut values: Vec<f64> = (0..n)
        .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
        .collect();
    let end = (burst_at + burst_len).min(n);
    for (i, v) in values.iter_mut().enumerate().take(end).skip(burst_at) {
        *v = 0.7 * (std::f64::consts::TAU * i as f64 / 28.0).sin();
    }
    TimeSeries::from(values)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("s2g_persist_test_{}_{name}", std::process::id()));
    dir
}

#[test]
fn roundtrip_scores_are_bit_identical_on_held_out_series() {
    let train = series_with_burst(6000, 0, 0);
    let model = Series2Graph::fit(&train, &S2gConfig::new(50)).unwrap();

    let path = tmp("roundtrip.s2g");
    codec::save_model(&path, &model).unwrap();
    let loaded = codec::load_model(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Held-out series (different length than training, contains an anomaly):
    // exercises the projection path, not the cached training contributions.
    let held_out = series_with_burst(4000, 2000, 150);
    for query_length in [50usize, 150, 300] {
        let expected = model.anomaly_scores(&held_out, query_length).unwrap();
        let got = loaded.anomaly_scores(&held_out, query_length).unwrap();
        assert_eq!(expected.len(), got.len());
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(
                e.to_bits(),
                g.to_bits(),
                "score {i} differs after round-trip (ℓq={query_length}): {e} vs {g}"
            );
        }
        assert_eq!(
            model.top_k_anomalies(&expected, 3, query_length),
            loaded.top_k_anomalies(&got, 3, query_length),
            "top-k ranking differs after round-trip (ℓq={query_length})"
        );
    }

    // Training-series scoring uses the persisted cached contributions.
    let on_train_expected = model.anomaly_scores(&train, 150).unwrap();
    let on_train_got = loaded.anomaly_scores(&train, 150).unwrap();
    for (e, g) in on_train_expected.iter().zip(&on_train_got) {
        assert_eq!(e.to_bits(), g.to_bits());
    }
}

#[test]
fn roundtrip_preserves_streaming_behaviour() {
    let train = series_with_burst(5000, 0, 0);
    let model = Series2Graph::fit(&train, &S2gConfig::new(40)).unwrap();
    let bytes = codec::encode_model(&model);
    let loaded = codec::decode_model(&bytes).unwrap();

    let stream = series_with_burst(2000, 1000, 150);
    let mut original = s2g_core::StreamingScorer::new(model, 150).unwrap();
    let mut restored = s2g_core::StreamingScorer::new(loaded, 150).unwrap();
    let a = original.push_batch(stream.values()).unwrap();
    let b = restored.push_batch(stream.values()).unwrap();
    assert_eq!(a.len(), b.len());
    for ((sa, va), (sb, vb)) in a.iter().zip(&b) {
        assert_eq!(sa, sb);
        assert_eq!(va.to_bits(), vb.to_bits());
    }
}

#[test]
fn truncated_files_are_rejected_at_every_cut() {
    let model = Series2Graph::fit(&series_with_burst(3000, 0, 0), &S2gConfig::new(40)).unwrap();
    let bytes = codec::encode_model(&model);
    // A sweep of truncation points across the whole file: every one must be
    // rejected with a typed error (checksum or format), never accepted and
    // never a panic.
    let mut cut = 0usize;
    while cut < bytes.len() {
        let err = codec::decode_model(&bytes[..cut])
            .expect_err(&format!("{cut}-byte prefix was accepted"));
        assert!(
            matches!(err, Error::Format(_) | Error::ChecksumMismatch { .. }),
            "unexpected error kind at cut {cut}: {err}"
        );
        cut += 97; // prime stride: hits many section boundaries
    }
}

#[test]
fn corrupted_files_are_rejected() {
    let model = Series2Graph::fit(&series_with_burst(3000, 0, 0), &S2gConfig::new(40)).unwrap();
    let clean = codec::encode_model(&model);

    // Flip one bit at several positions spread over the file body.
    for pos in [
        MAGIC.len() + 6,
        clean.len() / 4,
        clean.len() / 2,
        clean.len() - 20,
    ] {
        let mut corrupt = clean.clone();
        corrupt[pos] ^= 0x01;
        assert!(
            codec::decode_model(&corrupt).is_err(),
            "bit flip at {pos} went undetected"
        );
    }

    // Bad magic.
    let mut bad_magic = clean.clone();
    bad_magic[..8].copy_from_slice(b"NOTAMODL");
    assert!(matches!(
        codec::decode_model(&bad_magic),
        Err(Error::Format(_))
    ));

    // Future version (with a re-sealed checksum so only the version gate fires).
    let mut future = clean.clone();
    future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let body_len = future.len() - 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &future[..body_len] {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    future[body_len..].copy_from_slice(&h.to_le_bytes());
    assert!(matches!(
        codec::decode_model(&future),
        Err(Error::UnsupportedVersion { .. })
    ));

    // Empty and garbage files.
    assert!(codec::decode_model(&[]).is_err());
    assert!(codec::decode_model(&[0u8; 64]).is_err());
}

#[test]
fn registry_save_load_shares_the_same_codec() {
    let registry = s2g_engine::ModelRegistry::unbounded();
    let train = series_with_burst(4000, 0, 0);
    registry.fit("a", &train, &S2gConfig::new(45)).unwrap();

    let path = tmp("registry.s2g");
    registry.save("a", &path).unwrap();
    let restored = registry.load("b", &path).unwrap();
    std::fs::remove_file(&path).ok();

    let original = registry.get("a").unwrap();
    let held_out = series_with_burst(2500, 1200, 120);
    let e = original.anomaly_scores(&held_out, 135).unwrap();
    let g = restored.anomaly_scores(&held_out, 135).unwrap();
    assert_eq!(e, g);
    assert!(matches!(
        registry.save("missing", &path),
        Err(Error::UnknownModel(_))
    ));
}

#[test]
fn nonstandard_configs_roundtrip_exactly() {
    let train = series_with_burst(3500, 0, 0);
    let config = S2gConfig::new(60)
        .with_lambda(15)
        .with_rate(32)
        .with_bandwidth(BandwidthRule::SigmaRatio(0.25))
        .with_smoothing(false);
    let model = Series2Graph::fit(&train, &config).unwrap();
    let loaded = codec::decode_model(&codec::encode_model(&model)).unwrap();

    assert_eq!(loaded.config().pattern_length, 60);
    assert_eq!(loaded.config().lambda, 15);
    assert_eq!(loaded.config().rate, 32);
    assert_eq!(loaded.config().bandwidth, BandwidthRule::SigmaRatio(0.25));
    assert!(!loaded.config().smooth_scores);

    let held_out = series_with_burst(2000, 900, 130);
    let e = model.anomaly_scores(&held_out, 180).unwrap();
    let g = loaded.anomaly_scores(&held_out, 180).unwrap();
    for (a, b) in e.iter().zip(&g) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
