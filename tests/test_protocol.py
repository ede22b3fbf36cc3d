"""Protocol schema validation, the protocol object round trip, and the lifecycle table."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from cexp import protocol as P
from conftest import make_protocol_doc

FIXTURES = Path(__file__).parent / "fixtures" / "protocols"

_ERROR_CLASSES = {
    "ProtocolSyntaxError": P.ProtocolSyntaxError,
    "SchemaError": P.SchemaError,
    "ConstraintError": P.ConstraintError,
}

_INVALID_CASES = json.loads((FIXTURES / "invalid_cases.json").read_text("utf-8"))


def test_parse_minimal_valid_maps_fields():
    doc = make_protocol_doc()
    doc["variants"] = doc["variants"][:2]  # 1 PRODUCTION + 1 EXPERIMENTAL
    p = P.parse_protocol(json.dumps(doc))
    assert p.experiment_id == "exp-ab"
    assert p.cpu_threshold_pct == 80.0
    assert p.sustain_samples == 3
    assert len(p.variants) == 2
    assert p.variants[0].role is P.Role.PRODUCTION
    assert p.variants[1].role is P.Role.EXPERIMENTAL
    assert p.upload_policy == P.UploadPolicy(kind="AT_END")
    assert [v.variant_id for v in p.variants if v.role is P.Role.PRODUCTION] == ["prod"]
    assert [v.variant_id for v in p.variants if v.role is P.Role.EXPERIMENTAL] == ["expA"]


def test_experimental_count_capped_by_concurrency():
    doc = make_protocol_doc(
        variants=[
            {"variant_id": "prod", "role": "PRODUCTION", "bundle_digest": "sha256:" + "0" * 64, "launch_args": []},
            {"variant_id": "e1", "role": "EXPERIMENTAL", "bundle_digest": "sha256:" + "1" * 64, "launch_args": []},
            {"variant_id": "e2", "role": "EXPERIMENTAL", "bundle_digest": "sha256:" + "2" * 64, "launch_args": []},
            {"variant_id": "e3", "role": "EXPERIMENTAL", "bundle_digest": "sha256:" + "3" * 64, "launch_args": []},
        ],
        max_concurrent_experiments=2,
    )
    with pytest.raises(P.ConstraintError) as excinfo:
        P.parse_protocol(json.dumps(doc))
    assert "variants" in str(excinfo.value)


def test_zero_variants_rejected():
    with pytest.raises(P.ConstraintError) as excinfo:
        P.parse_protocol(json.dumps(make_protocol_doc(variants=[])))
    assert excinfo.value.field == "variants"


@pytest.mark.parametrize("length, refused", [(64, False), (65, True)])
def test_a_variant_id_is_capped_like_an_experiment_id(length, refused):
    doc = make_protocol_doc()
    doc["variants"][1]["variant_id"] = "e" * length
    if not refused:
        assert P.parse_protocol(json.dumps(doc)).variants[1].variant_id == "e" * length
        return
    with pytest.raises(P.ConstraintError) as excinfo:
        P.parse_protocol(json.dumps(doc))
    assert excinfo.value.field == "variants[1].variant_id"
    assert str(excinfo.value) == "variants[1].variant_id: length 65 exceeds 64"


@pytest.mark.parametrize("filename", sorted(_INVALID_CASES))
def test_invalid_fixture_rejected_naming_field(filename):
    error_name, field_fragment = _INVALID_CASES[filename]
    document = (FIXTURES / "invalid" / filename).read_text("utf-8")
    with pytest.raises(_ERROR_CLASSES[error_name]) as excinfo:
        P.parse_protocol(document)
    if field_fragment is not None:
        assert field_fragment in str(excinfo.value)


def test_invalid_fixture_suite_is_large_enough():
    assert len(_INVALID_CASES) >= 12


@pytest.mark.parametrize("filename", ["valid_minimal.json", "valid_periodic.json"])
def test_valid_fixture_roundtrips(filename):
    text = (FIXTURES / filename).read_text("utf-8")
    p = P.parse_protocol(text)
    assert P.protocol_to_object(p) == json.loads(text)
    assert P.parse_protocol(json.dumps(P.protocol_to_object(p))) == p


def test_periodic_policy_roundtrip():
    doc = make_protocol_doc(upload_policy={"PERIODIC": 30})
    p = P.parse_protocol(json.dumps(doc))
    assert p.upload_policy == P.UploadPolicy(kind="PERIODIC", interval_s=30)
    obj = P.protocol_to_object(p)
    assert obj["upload_policy"] == {"PERIODIC": 30}
    assert P.parse_protocol(json.dumps(obj)) == p


def _random_valid_doc(rng: random.Random) -> dict:
    n_exp = rng.randint(0, 2)
    variants = [
        {
            "variant_id": "prod",
            "role": "PRODUCTION",
            "bundle_digest": "sha256:" + format(rng.getrandbits(256), "064x"),
            "launch_args": [f"--opt={rng.randint(0, 9)}"] * rng.randint(0, 3),
        }
    ]
    for i in range(n_exp):
        variants.append(
            {
                "variant_id": f"exp{i}",
                "role": "EXPERIMENTAL",
                "bundle_digest": "sha256:" + format(rng.getrandbits(256), "064x"),
                "launch_args": [],
            }
        )
    sample_period_ms = rng.randint(50, 10_000)
    sustain = rng.randint(1, 5)
    duration = (sustain * sample_period_ms) // 1000 + rng.randint(1, 600)
    policy = "AT_END" if rng.random() < 0.5 else {"PERIODIC": rng.randint(1, 120)}
    return make_protocol_doc(
        experiment_id=f"exp-{rng.getrandbits(32):08x}",
        variants=variants,
        cpu_threshold_pct=rng.choice([5.0, 37.5, 80.0, 100.0, rng.randint(1, 100)]),
        mem_threshold_mb=rng.randint(1, 4096),
        sustain_samples=sustain,
        sample_period_ms=sample_period_ms,
        degrade_grace_samples=rng.randint(1, 4),
        max_duration_s=duration,
        max_concurrent_experiments=max(1, n_exp),
        upload_policy=policy,
    )


def test_roundtrip_property_over_random_protocols():
    rng = random.Random(20_240_817)
    for _ in range(50):
        doc = _random_valid_doc(rng)
        p = P.parse_protocol(json.dumps(doc))
        assert P.protocol_to_object(p) == doc
        assert P.parse_protocol(json.dumps(P.protocol_to_object(p))) == p


# -- lifecycle state machine -------------------------------------------------

_HAND_TABLE = json.loads((Path(__file__).parent / "fixtures" / "transitions.json").read_text("utf-8"))


def test_transition_running_abort():
    assert P.transition(P.ExperimentState.RUNNING, P.ExperimentEvent.ABORT) is P.ExperimentState.ABORTED


def test_transition_out_of_terminal_state_is_illegal():
    with pytest.raises(P.IllegalTransition):
        P.transition(P.ExperimentState.COMPLETED, P.ExperimentEvent.START)


def test_transition_exhaustive_against_hand_enumerated_table():
    checked = 0
    for state in P.ExperimentState:
        for event in P.ExperimentEvent:
            expected = _HAND_TABLE[state.value][event.value]
            if expected == "ILLEGAL":
                with pytest.raises(P.IllegalTransition):
                    P.transition(state, event)
            else:
                assert P.transition(state, event).value == expected
            checked += 1
    assert checked == len(P.ExperimentState) * len(P.ExperimentEvent) == 30


def test_state_machine_is_a_dag_from_pending_to_terminal():
    # exhaustive walk: no state is reachable from itself
    def successors(state):
        out = set()
        for event in P.ExperimentEvent:
            try:
                out.add(P.transition(state, event))
            except P.IllegalTransition:
                pass
        return out

    for start in P.ExperimentState:
        seen = set()
        frontier = successors(start)
        while frontier:
            nxt = frontier.pop()
            assert nxt is not start, f"cycle through {start}"
            if nxt not in seen:
                seen.add(nxt)
                frontier |= successors(nxt)

    # every maximal path from PENDING ends in a terminal state
    terminal = {P.ExperimentState.COMPLETED, P.ExperimentState.ABORTED}
    reachable = {P.ExperimentState.PENDING}
    frontier = [P.ExperimentState.PENDING]
    while frontier:
        state = frontier.pop()
        for nxt in successors(state):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    assert terminal <= reachable
    for state in reachable:
        if not successors(state):
            assert state in terminal
