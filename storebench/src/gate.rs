//! The correctness gate every run must pass before it prints a metric.
//!
//! 1. Every GET returns the exact bytes of a payload written to that key: its initial
//!    value or a PUT issued in the same round (payloads are all distinct, see
//!    [`crate::gen::payload`]).
//! 2. The recorded history of every key is decided linearizable.

use crate::gen::{self, Kind, INITIAL_WRITER};
use crate::spec::Spec;
use legostore_lincheck::HistoryRecorder;
use legostore_types::Value;
use std::ops::Range;

/// Per-key search budget of the linearizability check; a key left undecided fails.
pub const CHECK_STEPS_PER_KEY: u64 = 5_000_000;

/// Checks that `value`, returned by a GET of key `key`, is a payload written to `key`
/// by the initial install or by a PUT whose index lies in `issued[writer]`.
pub fn check_value(
    spec: &Spec,
    seed: u64,
    issued: &[Range<u64>],
    key: usize,
    value: &Value,
) -> Result<(), String> {
    let bytes = value.as_bytes();
    let (writer, index) = gen::parse_header(bytes).ok_or_else(|| {
        format!(
            "GET of key {key} returned {} bytes, shorter than a header",
            bytes.len()
        )
    })?;
    let expected = if writer == INITIAL_WRITER {
        if index != key as u64 {
            return Err(format!(
                "GET of key {key} returned the initial value of key {index}"
            ));
        }
        gen::payload(
            seed,
            INITIAL_WRITER,
            index,
            gen::initial_size(spec, seed, key),
        )
    } else {
        let range = issued.get(writer as usize).ok_or_else(|| {
            format!("GET of key {key} returned a value of unknown writer {writer}")
        })?;
        if !range.contains(&index) {
            return Err(format!(
                "GET of key {key} returned op {index} of client {writer}, never issued"
            ));
        }
        let o = gen::op(spec, seed, writer as usize, index);
        if o.kind != Kind::Put || o.key != key {
            return Err(format!(
                "GET of key {key} returned op {index} of client {writer}, not a PUT to it"
            ));
        }
        gen::payload(seed, writer, index, o.size)
    };
    if bytes != expected.as_slice() {
        return Err(format!(
            "GET of key {key} returned {} bytes naming op {index} of writer {writer}, \
             which wrote {} different bytes",
            bytes.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Decides every key of `recorder`; any failed or undecided key fails the gate.
pub fn check_linearizable(recorder: &HistoryRecorder) -> Result<(), String> {
    let (failures, undecided) = recorder.check_all_within(CHECK_STEPS_PER_KEY);
    if let Some((key, outcome)) = failures.first() {
        return Err(format!(
            "{} key(s) not linearizable, first {key}: {outcome:?}",
            failures.len()
        ));
    }
    if let Some(key) = undecided.first() {
        return Err(format!(
            "{} key(s) undecided within the step budget, first {key}",
            undecided.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;
    use legostore_lincheck::recorder::fingerprint;

    fn first_put(spec: &Spec, seed: u64) -> (u64, gen::Op) {
        (0..)
            .map(|i| (i, gen::op(spec, seed, 0, i)))
            .find(|(_, o)| o.kind == Kind::Put)
            .unwrap()
    }

    #[test]
    fn written_and_initial_payloads_pass() {
        let spec = find("cas-large").unwrap();
        let (i, o) = first_put(spec, 5);
        let issued = vec![0..i + 1, 0..0];
        let v = Value::from(gen::payload(5, 0, i, o.size));
        check_value(spec, 5, &issued, o.key, &v).unwrap();
        let init = Value::from(gen::payload(
            5,
            INITIAL_WRITER,
            3,
            gen::initial_size(spec, 5, 3),
        ));
        check_value(spec, 5, &issued, 3, &init).unwrap();
    }

    #[test]
    fn negative_control_wrong_length_value_is_rejected() {
        let spec = find("cas-large").unwrap();
        let (i, o) = first_put(spec, 5);
        let issued = vec![0..i + 1, 0..0];
        let mut bytes = gen::payload(5, 0, i, o.size);
        bytes.pop();
        let err = check_value(spec, 5, &issued, o.key, &Value::from(bytes)).unwrap_err();
        assert!(err.contains("different bytes"), "{err}");
        // A value of another key, and a value of an op never issued, are rejected too.
        let v = Value::from(gen::payload(5, 0, i, o.size));
        assert!(check_value(spec, 5, &issued, (o.key + 1) % spec.keys, &v).is_err());
        assert!(check_value(spec, 5, &[0..i, 0..0], o.key, &v).is_err());
    }

    #[test]
    fn negative_control_stale_read_is_rejected() {
        let rec = HistoryRecorder::new();
        let (old, new) = (fingerprint(b"old"), fingerprint(b"new"));
        rec.register_key("k", old);
        rec.record_put("k", 1, new, 0, 10);
        // Invoked after the PUT returned, yet reads the value it overwrote.
        rec.record_get("k", 2, old, 20, 30);
        assert!(check_linearizable(&rec).is_err());

        let ok = HistoryRecorder::new();
        ok.register_key("k", old);
        ok.record_put("k", 1, new, 0, 10);
        ok.record_get("k", 2, new, 20, 30);
        check_linearizable(&ok).unwrap();
    }
}
