//! Byte-for-byte comparison against committed files: the goldens under
//! `tests/golden/` and the seed snapshot `BENCH_seed.json`.

/// Compares `text` with the committed file at `path` (relative to the
/// repository root) byte for byte. With `GOLDEN_BLESS=1` set, rewrites
/// the file instead.
pub fn assert_pinned(path: &str, text: &str) {
    let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&file, text).expect("pinned file written");
        return;
    }
    let pinned = std::fs::read_to_string(&file).expect("pinned file exists");
    let first_diff = text.lines().zip(pinned.lines()).position(|(a, b)| a != b);
    assert!(
        text == pinned,
        "{path} differs from this tree's output (first differing line: {first_diff:?}, \
         lengths {} vs {}); re-bless an intended change with GOLDEN_BLESS=1",
        text.len(),
        pinned.len()
    );
}

/// [`assert_pinned`] of the golden file `tests/golden/<name>`.
#[allow(dead_code)] // the seed-snapshot test pins a file outside tests/golden
pub fn assert_golden(name: &str, text: &str) {
    assert_pinned(&format!("tests/golden/{name}"), text);
}

/// 64-bit FNV-1a digest of `bytes`: pins a long export in one line.
#[allow(dead_code)] // not every test crate that includes this module digests
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
