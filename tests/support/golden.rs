//! Byte-for-byte comparison against committed files under `tests/golden/`.

/// Compares `text` with the committed file `tests/golden/<name>` byte for
/// byte. With `GOLDEN_BLESS=1` set, rewrites the file instead.
pub fn assert_golden(name: &str, text: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, text).expect("golden file written");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    let first_diff = text.lines().zip(golden.lines()).position(|(a, b)| a != b);
    assert!(
        text == golden,
        "{name} differs from the pinned export (first differing line: {first_diff:?}, \
         lengths {} vs {})",
        text.len(),
        golden.len()
    );
}
