//! Integration test: the HTTPS cookie attack pipeline across crates — real TLS
//! record encryption (`tls-rc4`), statistics and candidate generation
//! (`plaintext-recovery`), and the Fig. 10 experiment driver (`rc4-attacks`).

use plaintext_recovery::charset::Charset;
use rc4_attacks::{
    experiments::fig10::{run, Fig10Config},
    ExperimentContext,
};
use rc4_exec::Executor;
use tls_rc4::{
    attack::{
        brute_force_cookie, cookie_candidates_with_exec, CookieAttackConfig, CookieStatistics,
    },
    http::RequestTemplate,
    traffic::{TrafficConfig, TrafficGenerator},
};

/// End-to-end plumbing over real TLS traffic: captures flow through the
/// statistics into a ranked candidate list over the cookie alphabet, and the
/// brute-force driver reports hits/misses faithfully.
#[test]
fn tls_capture_to_candidate_pipeline() {
    let cookie = b"c00kieVALUE00xyz";
    let mut template = RequestTemplate::new("site.com", "auth", cookie.len());
    template.align_cookie(0, 17, tls_rc4::record::MAC_LEN);
    let mut traffic = TrafficGenerator::new(
        template.clone(),
        cookie.to_vec(),
        TrafficConfig {
            requests_per_connection: 1 << 14,
            ..TrafficConfig::default()
        },
    )
    .unwrap();

    let mut stats = CookieStatistics::new(&template, 32).unwrap();
    for cap in traffic.capture(600).unwrap() {
        stats.add(&cap).unwrap();
    }
    assert_eq!(stats.requests(), 600);
    assert_eq!(stats.cookie_len(), cookie.len());

    let config = CookieAttackConfig {
        candidates: 128,
        ..CookieAttackConfig::default()
    };
    let candidates = cookie_candidates_with_exec(&stats, &config, &Executor::serial()).unwrap();
    assert!(!candidates.is_empty());
    for cand in &candidates {
        assert_eq!(cand.plaintext.len(), cookie.len());
        assert!(config.charset.accepts(&cand.plaintext));
    }
    for w in candidates.windows(2) {
        assert!(w[0].log_likelihood >= w[1].log_likelihood);
    }

    // The brute forcer finds a planted candidate and reports a miss otherwise.
    let outcome = brute_force_cookie(&candidates, |guess| guess == candidates[3].plaintext);
    assert_eq!(outcome.candidate_index, Some(3));
    assert_eq!(outcome.attempts, 4);
    let miss = brute_force_cookie(&candidates, |_| false);
    assert!(miss.cookie.is_none());
    assert_eq!(miss.attempts, candidates.len());
}

/// The Fig. 10 driver (sampled mode) succeeds at large request counts and the
/// candidate-list rule dominates the single-candidate rule.
#[test]
fn fig10_driver_candidate_list_dominates() {
    let config = Fig10Config {
        request_counts: vec![1 << 33],
        trials: 2,
        cookie_len: 4,
        charset: Charset::new(b"0123456789abcdef").unwrap(),
        candidates: 256,
        absab_relations: 32,
        cookie_position: 321,
        source: rc4_attacks::experiments::CountSource::Analytic,
        seed: 9,
    };
    let (points, report) = run(&config, &ExperimentContext::new()).unwrap();
    assert_eq!(points.len(), 1);
    let p = points[0];
    assert!(p.success_list >= p.success_top1);
    assert!(
        p.success_list > 0.4,
        "success too low: {p:?}\n{}",
        report.render()
    );
}
