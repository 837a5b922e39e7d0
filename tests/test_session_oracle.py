"""Oracle ground truth for the planted session-level vulnerabilities.

The false-positive/false-negative contract the session fuzzer's findings
rest on (the paper's Table VI analogue at sequence level):

* **reachability** — every planted predicate fires under its directed
  mutation of the happy path (``repro.core.session.DIRECTED_ATTACKS``);
* **soundness** — no predicate fires on any unmutated happy-path trace,
  in its own flow or any other.

Plus structural checks that keep the oracle honest: each vuln is scoped
to a modelled flow, each directed attack fires the bug it names, and the
happy path of every flow walks the graph to its terminal state.
"""

import pytest

from repro.core.session import (
    DIRECTED_ATTACKS,
    FLOW_GRAPHS,
    FLOWS,
    apply_ops,
    directed_corpus,
    evaluate_trace,
    planted_vuln_ids,
)
from repro.simulator.vulnerabilities import (
    SESSION_VULNS,
    match_session_vulns,
    session_vuln_by_id,
    session_vulns_for_flow,
)


class TestOracleStructure:
    def test_every_vuln_belongs_to_a_modelled_flow(self):
        for vuln in SESSION_VULNS:
            assert vuln.flow in FLOWS, vuln.vuln_id

    def test_every_vuln_has_a_directed_attack(self):
        assert set(DIRECTED_ATTACKS) == {v.vuln_id for v in SESSION_VULNS}

    def test_vuln_ids_are_unique_and_ordered(self):
        ids = [v.vuln_id for v in SESSION_VULNS]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)

    def test_at_least_ten_planted_bugs(self):
        assert len(SESSION_VULNS) >= 10

    def test_lookup_helpers(self):
        assert session_vuln_by_id("SV01").flow == "s0"
        with pytest.raises(KeyError):
            session_vuln_by_id("SV99")
        for flow in FLOWS:
            assert all(v.flow == flow for v in session_vulns_for_flow(flow))


class TestHappyPathsAreClean:
    @pytest.mark.parametrize("flow", FLOWS)
    def test_happy_path_reaches_terminal_state(self, flow):
        evaluation = evaluate_trace(flow, FLOW_GRAPHS[flow].happy)
        assert evaluation.final_state == FLOW_GRAPHS[flow].terminal
        # Every frame is on-path: no "!step" or "?" marks.
        assert all(not mark.startswith(("!", "?")) for _, mark in evaluation.transitions)

    @pytest.mark.parametrize("flow", FLOWS)
    def test_no_planted_bug_fires_on_any_happy_path(self, flow):
        """Soundness, cross-flow: flow X's clean trace is clean under every
        flow's predicate set, not just its own."""
        evaluation = evaluate_trace(flow, FLOW_GRAPHS[flow].happy)
        assert evaluation.findings == ()
        for other in FLOWS:
            assert match_session_vulns(other, evaluation.frames) == []


class TestDirectedReachability:
    @pytest.mark.parametrize("vuln", SESSION_VULNS, ids=lambda v: v.vuln_id)
    def test_directed_attack_fires_its_bug(self, vuln):
        events = apply_ops(vuln.flow, DIRECTED_ATTACKS[vuln.vuln_id])
        evaluation = evaluate_trace(vuln.flow, events)
        fired = {v.vuln_id for v, _index in evaluation.findings}
        assert vuln.vuln_id in fired, (
            f"{vuln.vuln_id} not reached by its directed attack "
            f"(fired: {sorted(fired)})"
        )

    @pytest.mark.parametrize("vuln", SESSION_VULNS, ids=lambda v: v.vuln_id)
    def test_firing_index_points_at_the_lenient_acceptance(self, vuln):
        """The reported index is a real frame of the mutated sequence."""
        events = apply_ops(vuln.flow, DIRECTED_ATTACKS[vuln.vuln_id])
        evaluation = evaluate_trace(vuln.flow, events)
        for fired_vuln, index in evaluation.findings:
            if fired_vuln.vuln_id == vuln.vuln_id:
                assert 0 <= index < len(events)
                return
        pytest.fail(f"{vuln.vuln_id} missing from findings")

    def test_unknown_attack_rejected(self):
        corpus_ids = {vuln_id for flow in FLOWS for vuln_id, _ops in directed_corpus(flow)}
        assert corpus_ids == set(DIRECTED_ATTACKS)
        assert "SV99" not in corpus_ids


class TestPlantedCoverageOfIssueExamples:
    """The four bug shapes ISSUE 8 names explicitly all exist."""

    def test_s0_scheme_downgrade(self):
        assert session_vuln_by_id("SV01").flow == "s0"

    def test_s2_nonce_reuse(self):
        assert session_vuln_by_id("SV06").flow == "s2"

    def test_ota_resume_without_reauth(self):
        assert session_vuln_by_id("SV11").flow == "ota"

    def test_inclusion_stale_nif(self):
        assert session_vuln_by_id("SV07").flow == "inclusion"

    def test_planted_vuln_ids_helper_scopes_by_flow(self):
        assert planted_vuln_ids(("s0",)) == ("SV01", "SV02", "SV03")
        assert len(planted_vuln_ids()) == len(SESSION_VULNS)
