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
    let mut now = SimTime::ZERO;
    for _ in 0..6 {
        now += SimDuration::from_secs(10);
        prover.self_measure(now)?;
    }
    let response = prover.handle_collection(&CollectionRequest::latest(4), now);
    let report = verifier.verify_collection(&response, now)?;
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
const CRYPTO_SOURCES: [(&str, &str); 10] = [
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
    ("md.rs", include_str!("../crates/crypto/src/md.rs")),
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
/// `erasmus-crypto` `deny`s it, so that the SHA-NI dispatcher that SHA-256
/// and SHA-1 share can lift it: the crate holds exactly one `unsafe` block,
/// and the keyword appears once more, in the type of a SHA-NI kernel
/// (`md.rs`'s `Kernel`, an `unsafe fn` pointer), which runs nothing until
/// that block calls one. The block carries a `// SAFETY:` comment that
/// names `is_x86_feature_detected!`, and sits in the `if` that runs the
/// detection of every feature any crypto file's kernels are compiled for.
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
    let (kernel_type, blocks): (Vec<_>, Vec<_>) = sites.iter().partition(|&&(file, line)| {
        crypto(file)
            .lines()
            .nth(line)
            .is_some_and(|code| code.starts_with("pub type Kernel<S> = unsafe fn("))
    });
    assert_eq!(
        kernel_type.len(),
        1,
        "the SHA-NI kernel type is `md.rs`'s one `Kernel` alias; found `unsafe` at \
         (file, line index) {sites:?}"
    );
    assert_eq!(
        blocks.len(),
        1,
        "erasmus-crypto must hold exactly one `unsafe` block, the SHA-NI call in `md.rs`; \
         found `unsafe` at (file, line index) {sites:?}"
    );
    let &(file, block) = blocks[0];
    audit_sha_ni_call(file, crypto(file), block);
}

/// Checks the `unsafe` at line index `block` of `file`: a block, guarded by
/// an `if` with only comments and the lint expectation in between, whose
/// `// SAFETY:` comment names `is_x86_feature_detected!`, in an
/// `#[inline(never)]` function. The `if` calls a detection function of
/// `file` that detects every feature of every
/// `#[target_feature(enable = ...)]` in the crate.
fn audit_sha_ni_call(file: &str, source: &str, block: usize) {
    let lines: Vec<&str> = source.lines().map(str::trim).collect();
    assert_eq!(lines[block], "unsafe {", "{file}: the `unsafe` is a block");

    // Between the guarding `if` and the block: only its SAFETY comment and
    // its `#[expect(unsafe_code, ...)]`.
    let guard = lines[..block]
        .iter()
        .rposition(|line| line.starts_with("if "))
        .unwrap_or_else(|| panic!("{file}: an `if` guards the `unsafe` block"));
    let preamble = &lines[guard + 1..block];
    assert!(
        preamble.iter().all(|line| line.starts_with("//") || line.starts_with("#[expect(unsafe_code")),
        "{file}: only comments and the lint expectation may sit between the guard and the block: {preamble:?}"
    );
    let safety = preamble
        .iter()
        .position(|line| line.starts_with("// SAFETY:"))
        .unwrap_or_else(|| panic!("{file}: a `// SAFETY:` comment precedes the `unsafe` block"));
    let comment = preamble[safety..].join(" ");
    assert!(
        comment.contains("is_x86_feature_detected!"),
        "{file}: the SAFETY comment names the detection that makes the call sound: {comment}"
    );

    // The function that holds the block, the only one a SHA-NI kernel may
    // be inlined into, is never inlined itself: see `md.rs`'s `compress`.
    let function = lines[..guard]
        .iter()
        .rposition(|line| line.contains("fn "))
        .unwrap_or_else(|| panic!("{file}: a function holds the `unsafe` block"));
    assert_eq!(
        lines[function - 1],
        "#[inline(never)]",
        "{file}: `{}` must stay out of line",
        lines[function]
    );

    // The guard's detection covers every feature any kernel is compiled for.
    let detector = lines[guard]
        .strip_prefix("if ")
        .and_then(|condition| condition.strip_suffix("() {"))
        .unwrap_or_else(|| {
            panic!(
                "{file}: the guard is `if <detection>() {{`: {}",
                lines[guard]
            )
        });
    let signature = format!("fn {detector}() -> bool {{");
    let start = lines
        .iter()
        .position(|line| line.ends_with(&signature))
        .unwrap_or_else(|| panic!("{file} defines `{signature}`"));
    let end = start
        + lines[start..]
            .iter()
            .position(|line| *line == "}")
            .unwrap_or_else(|| panic!("{file}: `{detector}` ends"));
    let detection = lines[start..end].join(" ");
    let mut kernels = 0;
    for (kernel_file, kernel_source) in CRYPTO_SOURCES {
        for attribute in kernel_source
            .lines()
            .filter_map(|line| line.trim().strip_prefix("#[target_feature(enable = \""))
        {
            kernels += 1;
            let features = attribute.split('"').next().expect("a quoted feature list");
            for feature in features.split(',') {
                let check = format!("is_x86_feature_detected!(\"{feature}\")");
                assert!(
                    detection.contains(&check),
                    "{kernel_file} compiles a kernel for `{feature}`, but `{detector}` never runs \
                     `{check}`"
                );
            }
        }
    }
    assert!(
        kernels > 0,
        "the SHA-NI kernels carry `#[target_feature(enable = ...)]`"
    );
}
