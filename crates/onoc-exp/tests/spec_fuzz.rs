//! Byte-mutation fuzzing of the spec parsers: mutated copies of the
//! example specs, in TOML and in their JSON form, must never panic
//! `ScenarioSpec::from_toml_str`/`from_json_str`, and every spec either
//! parser accepts must round-trip through both serializers.

use onoc_exp::ScenarioSpec;
use proptest::prelude::*;

/// The example specs, in TOML.
const EXAMPLES: [&str; 9] = [
    include_str!("../../../examples/scenario.toml"),
    include_str!("../../../examples/scenario_closed_loop.toml"),
    include_str!("../../../examples/scenario_energy.toml"),
    include_str!("../../../examples/scenario_faults.toml"),
    include_str!("../../../examples/scenario_healing.toml"),
    include_str!("../../../examples/scenario_pdes.toml"),
    include_str!("../../../examples/scenario_serve.toml"),
    include_str!("../../../examples/scenario_telemetry.toml"),
    include_str!("../../../examples/scenario_trace_replay.toml"),
];

/// Bytes that steer a mutation toward the syntax: quotes, brackets,
/// separators, signs, exponents, escapes, and a UTF-8 lead byte.
const SYNTAX: &[u8] = b"\"[]{}=.,:-+#eE\\\n 09_\xe2";

/// Applies each `(position, op, byte)` edit to `doc`: overwrite, insert,
/// delete, or overwrite with a syntax byte.
fn mutate(doc: &str, positions: &[usize], ops: &[u8], bytes: &[u8]) -> String {
    let mut raw = doc.as_bytes().to_vec();
    for ((&position, &op), &byte) in positions.iter().zip(ops).zip(bytes) {
        let at = position % (raw.len() + 1);
        match op {
            0 if at < raw.len() => raw[at] = byte,
            1 => raw.insert(at, byte),
            2 if at < raw.len() => {
                raw.remove(at);
            }
            _ if at < raw.len() => raw[at] = SYNTAX[usize::from(byte) % SYNTAX.len()],
            _ => {}
        }
    }
    String::from_utf8_lossy(&raw).into_owned()
}

/// An accepted spec must survive both serializers unchanged.
fn assert_round_trips(spec: &ScenarioSpec) -> Result<(), TestCaseError> {
    let from_toml = ScenarioSpec::from_toml_str(&spec.to_toml());
    prop_assert_eq!(from_toml.as_ref(), Ok(spec));
    let from_json = ScenarioSpec::from_json_str(&spec.to_json());
    prop_assert_eq!(from_json.as_ref(), Ok(spec));
    Ok(())
}

/// Mutants per example and document form in one case: mutant `k`
/// applies the first `1 + k % 4` edits of its own slice of the draws.
const MUTANTS: usize = 8;

proptest! {
    #[test]
    fn mutated_specs_never_panic_the_parsers(
        positions in prop::collection::vec(0usize..4096, 4 * MUTANTS),
        ops in prop::collection::vec(0u8..4, 4 * MUTANTS),
        bytes in prop::collection::vec(0u8..=255, 4 * MUTANTS),
    ) {
        for example in EXAMPLES {
            let spec = ScenarioSpec::from_toml_str(example).expect("the examples are valid");
            for doc in [example.to_string(), spec.to_json()] {
                for k in 0..MUTANTS {
                    let edits = 4 * k..4 * k + 1 + k % 4;
                    let mutated = mutate(
                        &doc,
                        &positions[edits.clone()],
                        &ops[edits.clone()],
                        &bytes[edits],
                    );
                    let accepted = [
                        ScenarioSpec::from_toml_str(&mutated),
                        ScenarioSpec::from_json_str(&mutated),
                    ];
                    for spec in accepted.iter().flatten() {
                        assert_round_trips(spec)?;
                    }
                }
            }
        }
    }
}
