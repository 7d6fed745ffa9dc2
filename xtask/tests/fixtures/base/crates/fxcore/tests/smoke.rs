//! A test root: unlike `lib.rs`, it need not forbid unsafe code.

#[test]
fn step_sums() {
    assert_eq!(fxcore::step(&[1.0, 2.0]), 3.0);
}
