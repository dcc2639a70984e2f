//! Workspace smoke test: the `erasmus::prelude` quickstart path promised by
//! the facade crate's doc-comment (measure → collect → verify →
//! `report.all_valid()`) must keep working verbatim. If this test fails, the
//! README/crate-root example has rotted.

use erasmus::prelude::*;

#[test]
fn prelude_quickstart_path_measure_collect_verify() -> Result<(), erasmus::core::Error> {
    // A low-end prover that self-measures every 10 simulated seconds and
    // keeps the last 16 measurements in its rolling buffer.
    let profile = DeviceProfile::msp430_8mhz(10 * 1024);
    let config = ProverConfig::builder()
        .mac_algorithm(MacAlgorithm::HmacSha256)
        .measurement_interval(SimDuration::from_secs(10))
        .buffer_slots(16)
        .build()?;
    let key = DeviceKey::from_bytes([0x42; 32]);
    let mut prover = Prover::new(DeviceId::new(1), profile, key.clone(), config)?;
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);

    // Let the device run for a minute, then collect and verify its history.
    let mut clock = SimClock::new();
    for _ in 0..6 {
        clock.advance(SimDuration::from_secs(10));
        prover.self_measure(clock.now())?;
    }
    let response = prover.handle_collection(&CollectionRequest::latest(4), clock.now());
    let report = verifier.verify_collection(&response, clock.now())?;
    assert!(report.all_valid());
    assert_eq!(report.measurements().len(), 4);
    Ok(())
}

#[test]
fn prelude_exposes_the_documented_surface() {
    // Compile-time check that the prelude keeps re-exporting the types the
    // documentation tells users to reach for.
    fn assert_exists<T>() {}
    assert_exists::<AttestationVerdict>();
    assert_exists::<CollectionResponse>();
    assert_exists::<Measurement>();
    assert_exists::<MeasurementBuffer>();
    assert_exists::<QoaParams>();
    assert_exists::<SecurityArchitecture>();
    assert_exists::<Sha256>();
    assert_exists::<SimTime>();
}

/// Every source file of `erasmus-crypto`, the one crate whose root lets a
/// module lift the `unsafe_code` lint. The test below fails when a file is
/// added to `crates/crypto/src` and not to this list.
const CRYPTO_SOURCES: [(&str, &str); 9] = [
    (
        "blake2s.rs",
        include_str!("../crates/crypto/src/blake2s.rs"),
    ),
    ("ct.rs", include_str!("../crates/crypto/src/ct.rs")),
    ("digest.rs", include_str!("../crates/crypto/src/digest.rs")),
    ("drbg.rs", include_str!("../crates/crypto/src/drbg.rs")),
    ("hmac.rs", include_str!("../crates/crypto/src/hmac.rs")),
    ("lib.rs", include_str!("../crates/crypto/src/lib.rs")),
    ("mac.rs", include_str!("../crates/crypto/src/mac.rs")),
    ("sha1.rs", include_str!("../crates/crypto/src/sha1.rs")),
    ("sha256.rs", include_str!("../crates/crypto/src/sha256.rs")),
];

/// Indices of the lines of `source` whose code, comments cut off, holds the
/// keyword `unsafe` (an identifier such as `unsafe_code` does not count).
fn unsafe_keyword_lines(source: &str) -> Vec<usize> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or_default();
            code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|word| word == "unsafe")
        })
        .map(|(index, _)| index)
        .collect()
}

/// `unsafe` is off in every first-party crate but for one audited block.
/// Seven roots `forbid` it, so that no module below them can lift it.
/// `erasmus-crypto` `deny`s it, so that its SHA-NI call can, once: that
/// call is the crate's only `unsafe` block, carries a `// SAFETY:` comment
/// that names `is_x86_feature_detected!`, and sits in the `if` that runs the
/// detection of every feature its kernel is compiled for.
#[test]
fn every_first_party_crate_root_forbids_unsafe_code() {
    let forbidding = [
        ("erasmus", include_str!("../src/lib.rs")),
        ("bench", include_str!("../crates/bench/src/lib.rs")),
        ("core", include_str!("../crates/core/src/lib.rs")),
        ("fuzz", include_str!("../crates/fuzz/src/lib.rs")),
        ("hw", include_str!("../crates/hw/src/lib.rs")),
        ("sim", include_str!("../crates/sim/src/lib.rs")),
        ("swarm", include_str!("../crates/swarm/src/lib.rs")),
    ];
    for (name, source) in forbidding {
        assert!(
            source.lines().any(|line| line == "#![forbid(unsafe_code)]"),
            "the {name} crate root is missing `#![forbid(unsafe_code)]`"
        );
    }
    let crypto = |file: &str| {
        let (_, source) = CRYPTO_SOURCES
            .iter()
            .find(|(name, _)| *name == file)
            .expect("listed");
        *source
    };
    assert!(
        crypto("lib.rs")
            .lines()
            .any(|line| line == "#![deny(unsafe_code)]"),
        "the crypto crate root is missing `#![deny(unsafe_code)]`"
    );

    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/crypto/src");
    let mut on_disk: Vec<String> = std::fs::read_dir(&src)
        .expect("crates/crypto/src is readable")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            entry.file_name().into_string().expect("UTF-8 file name")
        })
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = CRYPTO_SOURCES.iter().map(|(file, _)| *file).collect();
    assert_eq!(
        on_disk, listed,
        "list every crates/crypto/src file in CRYPTO_SOURCES"
    );

    let sites: Vec<(&str, usize)> = CRYPTO_SOURCES
        .iter()
        .flat_map(|&(file, source)| {
            unsafe_keyword_lines(source)
                .into_iter()
                .map(move |line| (file, line))
        })
        .collect();
    assert_eq!(
        sites.len(),
        1,
        "erasmus-crypto must hold exactly one `unsafe`, found it at (file, line index) {sites:?}"
    );
    let (file, block) = sites[0];
    assert_eq!(
        file, "sha256.rs",
        "the one `unsafe` block belongs to the SHA-NI call"
    );
    let sha256 = crypto("sha256.rs");
    let lines: Vec<&str> = sha256.lines().map(str::trim).collect();
    assert_eq!(lines[block], "unsafe {", "the one `unsafe` is a block");

    // Between the guarding `if` and the block: only its SAFETY comment and
    // its `#[expect(unsafe_code, ...)]`.
    let guard = lines[..block]
        .iter()
        .rposition(|line| line.starts_with("if "))
        .expect("an `if` guards the `unsafe` block");
    let preamble = &lines[guard + 1..block];
    assert!(
        preamble.iter().all(|line| line.starts_with("//") || line.starts_with("#[expect(unsafe_code")),
        "only comments and the lint expectation may sit between the guard and the block: {preamble:?}"
    );
    let safety = preamble
        .iter()
        .position(|line| line.starts_with("// SAFETY:"))
        .expect("a `// SAFETY:` comment precedes the `unsafe` block");
    let comment = preamble[safety..].join(" ");
    assert!(
        comment.contains("is_x86_feature_detected!"),
        "the SAFETY comment names the detection that makes the call sound: {comment}"
    );

    // The detection covers every feature the kernel is compiled for.
    let attribute = lines
        .iter()
        .find_map(|line| line.strip_prefix("#[target_feature(enable = \""))
        .expect("the SHA-NI kernel carries `#[target_feature(enable = ...)]`");
    let features = attribute.split('"').next().expect("a quoted feature list");
    for feature in features.split(',') {
        let detection = format!("is_x86_feature_detected!(\"{feature}\")");
        assert!(
            sha256.contains(&detection),
            "sha256.rs never runs `{detection}`"
        );
    }
}
