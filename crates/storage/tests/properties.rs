//! Property tests for the storage substrate: split-point adjustment must
//! partition inputs without losing or duplicating bytes, boundaries must
//! be genuine record boundaries, and the token bucket must never exceed
//! its configured rate, however many takers share it.

use supmr_storage::scan::{self, ByteClass};
use supmr_storage::throttle::BucketState;
use supmr_storage::{MemSource, RecordFormat, SourceExt};
use supmr_workloads::check::{check, Gen};

/// Text made of small records with the given terminator.
fn text_with_terminator(g: &mut Gen, term: &str) -> Vec<u8> {
    let mut out = Vec::new();
    for w in g.vec(0..60, |g| g.vec(0..12, |g| g.range(b'a'..=b'z'))) {
        out.extend_from_slice(&w);
        out.extend_from_slice(term.as_bytes());
    }
    out
}

#[test]
fn newline_adjustment_lands_on_boundaries() {
    check("newline_adjustment_lands_on_boundaries", 256, |g| {
        let data = text_with_terminator(g, "\n");
        let want_frac = g.range(0.0f64..=1.0);
        let want = ((data.len() as f64) * want_frac) as usize;
        let adjusted = RecordFormat::Newline.adjust_split_point(&data, want);
        assert!(adjusted >= want);
        assert!(RecordFormat::Newline.is_boundary(&data, adjusted));
    });
}

#[test]
fn crlf_adjustment_lands_on_boundaries() {
    check("crlf_adjustment_lands_on_boundaries", 256, |g| {
        let data = text_with_terminator(g, "\r\n");
        let want_frac = g.range(0.0f64..=1.0);
        let want = ((data.len() as f64) * want_frac) as usize;
        let adjusted = RecordFormat::CrLf.adjust_split_point(&data, want);
        assert!(adjusted >= want);
        assert!(RecordFormat::CrLf.is_boundary(&data, adjusted));
    });
}

#[test]
fn chunking_by_adjusted_splits_is_a_partition() {
    check("chunking_by_adjusted_splits_is_a_partition", 256, |g| {
        let data = text_with_terminator(g, "\n");
        let chunk_size = g.range(1usize..64);
        // Walk the input in chunk_size strides with boundary adjustment;
        // the concatenation of chunks must equal the input and every cut
        // must be a boundary.
        let f = RecordFormat::Newline;
        let mut pos = 0;
        let mut rebuilt = Vec::new();
        while pos < data.len() {
            let want = (pos + chunk_size).min(data.len());
            let end = f.adjust_split_point(&data, want);
            assert!(end > pos, "chunking must make progress");
            assert!(f.is_boundary(&data, end));
            rebuilt.extend_from_slice(&data[pos..end]);
            pos = end;
        }
        assert_eq!(rebuilt, data);
    });
}

#[test]
fn record_iteration_is_lossless() {
    check("record_iteration_is_lossless", 256, |g| {
        let data = text_with_terminator(g, "\n");
        let mut rebuilt = Vec::new();
        for rec in RecordFormat::Newline.records(&data) {
            assert!(!rec.is_empty());
            rebuilt.extend_from_slice(rec);
        }
        assert_eq!(rebuilt, data);
    });
}

#[test]
fn fixed_width_records_have_uniform_length() {
    check("fixed_width_records_have_uniform_length", 256, |g| {
        let n = g.range(0usize..500);
        let w = g.range(1usize..17);
        let data = vec![0xABu8; n];
        let recs: Vec<&[u8]> = RecordFormat::FixedWidth(w).records(&data).collect();
        for (i, r) in recs.iter().enumerate() {
            if i + 1 < recs.len() {
                assert_eq!(r.len(), w);
            } else {
                assert!(r.len() <= w && !r.is_empty());
            }
        }
        assert_eq!(recs.iter().map(|r| r.len()).sum::<usize>(), n);
    });
}

#[test]
fn mem_source_range_reads_agree_with_slicing() {
    check("mem_source_range_reads_agree_with_slicing", 256, |g| {
        let data = g.vec(0..2000, |g| g.range(..));
        let start = g.range(0u64..2500);
        let len = g.range(0usize..2500);
        let mut src = MemSource::from(data.clone());
        let got = src.read_range(start, len).unwrap();
        let s = (start as usize).min(data.len());
        let e = (s + len).min(data.len());
        assert_eq!(got, data[s..e].to_vec());
    });
}

#[test]
fn swar_find_byte_matches_scalar_search() {
    check("swar_find_byte_matches_scalar_search", 256, |g| {
        let data = g.vec(0..300, |g| g.range(..));
        let needle = g.range(..);
        assert_eq!(scan::find_byte(&data, needle), data.iter().position(|&b| b == needle));
    });
}

#[test]
fn swar_find_crlf_matches_scalar_search() {
    check("swar_find_crlf_matches_scalar_search", 256, |g| {
        let data = g.vec(0..300, |g| g.pick(b"\r\nx"));
        assert_eq!(scan::find_crlf(&data), data.windows(2).position(|w| w == b"\r\n"));
    });
}

#[test]
fn swar_class_scans_match_scalar_search() {
    check("swar_class_scans_match_scalar_search", 256, |g| {
        let data = g.vec(0..300, |g| g.range(..));
        let from = g.range(0usize..320);
        let word = g.bool();
        let class = if word { ByteClass::Word } else { ByteClass::Alnum };
        let from = from.min(data.len());
        let scalar_member = (from..data.len()).find(|&i| class.contains(data[i]));
        assert_eq!(scan::find_member(&data, from, class), scalar_member);
        let scalar_non =
            (from..data.len()).find(|&i| !class.contains(data[i])).unwrap_or(data.len());
        assert_eq!(scan::find_non_member(&data, from, class), scalar_non);
    });
}

#[test]
fn swar_tokens_match_scalar_tokenizer() {
    check("swar_tokens_match_scalar_tokenizer", 256, |g| {
        let data = g.vec(0..400, |g| g.range(..));
        let word = g.bool();
        let class = if word { ByteClass::Word } else { ByteClass::Alnum };
        // Scalar reference: maximal runs of class members, in order.
        let mut scalar: Vec<&[u8]> = Vec::new();
        let mut start = None;
        for (i, &b) in data.iter().enumerate() {
            if class.contains(b) {
                start.get_or_insert(i);
            } else if let Some(s) = start.take() {
                scalar.push(&data[s..i]);
            }
        }
        if let Some(s) = start {
            scalar.push(&data[s..]);
        }
        let swar: Vec<&[u8]> = scan::tokens(&data, class).collect();
        assert_eq!(swar, scalar);
    });
}

#[test]
fn swar_case_fold_matches_scalar_fold() {
    check("swar_case_fold_matches_scalar_fold", 256, |g| {
        let data = g.vec(0..300, |g| g.range(..));
        let mut folded = Vec::new();
        scan::push_ascii_lower(&data, &mut folded);
        let scalar: Vec<u8> = data.iter().map(|b| b.to_ascii_lowercase()).collect();
        assert_eq!(folded, scalar);
    });
}

#[test]
fn token_bucket_never_exceeds_rate_plus_burst() {
    check("token_bucket_never_exceeds_rate_plus_burst", 256, |g| {
        let rate = g.range(10.0f64..1e6);
        let burst = g.range(10.0f64..1e5);
        let requests = g.vec(1..50, |g| (g.range(0u64..100_000), g.range(0u64..1_000_000_000u64)));
        // Feed monotone timestamps; total granted by time T must be
        // <= burst + rate * T (the token-bucket contract).
        let mut b = BucketState::new(rate, burst, 0);
        let mut t = 0u64;
        let mut granted = 0u64;
        for (want, dt) in requests {
            t += dt;
            granted += b.take(want, t);
            let elapsed_secs = t as f64 / 1e9;
            let ceiling = burst + rate * elapsed_secs + 1.0;
            assert!(
                (granted as f64) <= ceiling,
                "granted {} > ceiling {} at t={}s",
                granted,
                ceiling,
                elapsed_secs
            );
        }
    });
}

#[test]
fn two_takers_share_one_bucket_without_exceeding_it() {
    check("two_takers_share_one_bucket_without_exceeding_it", 256, |g| {
        let rate = g.range(10.0f64..1e6);
        let burst = g.range(10.0f64..1e5);
        // Each taker reads its own increasing clock; their takes reach
        // the one bucket interleaved, so the bucket can see a timestamp
        // older than the last one it refilled at.
        let steps =
            g.vec(1..80, |g| (g.bool(), g.range(0u64..100_000), g.range(0u64..300_000_000)));
        let mut b = BucketState::new(rate, burst, 0);
        let mut clocks = [0u64; 2];
        let mut granted = [0u64; 2];
        for (second, want, dt) in steps {
            let who = usize::from(second);
            clocks[who] += dt;
            let got = b.take(want, clocks[who]);
            assert!(got <= want, "taker {who} asked for {want} and was granted {got}");
            granted[who] += got;
            let elapsed_secs = clocks[0].max(clocks[1]) as f64 / 1e9;
            let total = granted[0] + granted[1];
            let ceiling = burst + rate * elapsed_secs + 1.0;
            assert!(
                total as f64 <= ceiling,
                "takers were granted {granted:?} = {total} > ceiling {ceiling} at t={elapsed_secs}s"
            );
        }
    });
}

#[test]
fn token_bucket_eventually_grants_everything() {
    check("token_bucket_eventually_grants_everything", 256, |g| {
        let rate = g.range(100.0f64..1e6);
        let want = g.range(1u64..10_000);
        let mut b = BucketState::new(rate, rate.max(64.0), 0);
        let mut granted = 0u64;
        let mut t = 0u64;
        let mut iterations = 0;
        while granted < want {
            granted += b.take(want - granted, t);
            t += 1_000_000_000; // 1 virtual second per retry
            iterations += 1;
            assert!(iterations < 100_000, "bucket starved");
        }
        assert_eq!(granted, want);
    });
}
