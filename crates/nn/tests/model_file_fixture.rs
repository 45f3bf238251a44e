//! Model-file back-compat pinned by bytes checked into the repository.
//!
//! `fixtures/classifier_v2_4x8x3.bin` is a `TAGLETS2` file written by an
//! earlier build: a seeded 4→8→3 ReLU classifier
//! (`Mlp::new(&[4, 8], 0.0, rng)` plus `Linear::new(8, 3, rng)` from
//! `StdRng::seed_from_u64(12)`). The round-trip tests in `serialize.rs`
//! save and load within one build, so they cannot notice a format change;
//! these tests can. The fixture is never regenerated: if a change breaks
//! them, the change broke every model file already on disk.

use taglets_nn::{load_classifier, save_classifier, Activation};
use taglets_tensor::Tensor;

const FIXTURE: &[u8] = include_bytes!("fixtures/classifier_v2_4x8x3.bin");

/// `predict_proba` bits of the fixture model on [`input`], recorded when
/// the fixture was written.
const EXPECTED_PROBA_BITS: [u32; 6] = [
    0x3e88_9c28, // 0.26681638
    0x3e0f_0cac, // 0.13969678
    0x3f17_eec1, // 0.59348685
    0x3ea0_372d, // 0.31292096
    0x3eea_5b49, // 0.4577277
    0x3e6a_db14, // 0.22935134
];

fn input() -> Tensor {
    Tensor::from_shape(
        vec![2, 4],
        vec![0.5, -1.25, 2.0, 0.0, -0.75, 0.25, -2.5, 1.5],
    )
    .unwrap()
}

fn proba_bits(bytes: &[u8]) -> Vec<u32> {
    let clf = load_classifier(bytes).unwrap();
    assert_eq!(clf.input_dim(), 4);
    assert_eq!(clf.num_classes(), 3);
    assert_eq!(clf.backbone().activation(), Activation::Relu);
    clf.predict_proba(&input())
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn v2_fixture_loads_and_predicts_the_recorded_bits() {
    assert_eq!(proba_bits(FIXTURE), EXPECTED_PROBA_BITS);
}

#[test]
fn v2_fixture_re_saves_byte_identically() {
    let clf = load_classifier(FIXTURE).unwrap();
    let mut buf = Vec::new();
    save_classifier(&clf, &mut buf).unwrap();
    assert_eq!(buf, FIXTURE);
}

#[test]
fn legacy_v1_rewrite_of_the_fixture_predicts_the_same_bits() {
    // A v1 file is the v2 layout without the activation byte, under the
    // `TAGLETS1` magic; the fixture's activation byte is 0 (ReLU).
    assert_eq!(&FIXTURE[..9], b"TAGLETS2\0");
    let mut v1 = b"TAGLETS1".to_vec();
    v1.extend_from_slice(&FIXTURE[9..]);
    assert_eq!(proba_bits(&v1), EXPECTED_PROBA_BITS);
}
