"""Tests for structure builders, NPN cost cache and the strategy library."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import Aig, Mig, MixedNetwork, Xag, Xmg, rep_view
from repro.networks.base import GateType
from repro.synthesis import (
    SYNTHESIS_METHODS,
    NpnCostCache,
    AREA_STRATEGY,
    LEVEL_STRATEGY,
    synthesize_candidates,
    synthesize_tt,
)
from repro.synthesis.factoring import (
    PLAN_MEMO_LIMIT,
    PLAN_MEMO_MAX_VARS,
    _plan_cached,
    build_from_cubes,
    replay_plan,
    synthesis_plan,
    synthesis_plan_stats,
)
from repro.truth.truth_table import TruthTable


def check_realizes(cls, tt, method):
    ntk = cls()
    leaves = [ntk.create_pi() for _ in range(tt.num_vars)]
    out = synthesize_tt(ntk, tt, leaves, method=method)
    ntk.create_po(out)
    assert ntk.simulate_truth_tables()[0] == tt, (cls.__name__, method, tt)


class TestBuildFromCubes:
    @pytest.mark.parametrize("cubes", [
        [(0b011, 0), (0b011, 0), (0b100, 0)],      # a.b + a.b + c
        [(0b001, 0b010), (0b001, 0b010)],          # a.!b twice
        [(0b001, 0), (0b001, 0), (0, 0b110)],      # a + a + !b.!c
        [(0b101, 0b010)] * 3 + [(0b010, 0)],
    ])
    def test_duplicate_cubes_realize_their_or(self, cubes):
        ntk = Aig()
        leaves = [ntk.create_pi() for _ in range(3)]
        ntk.create_po(build_from_cubes(ntk, cubes, leaves))
        for x in range(8):
            bits = [bool((x >> v) & 1) for v in range(3)]
            expect = any(
                all(bits[v] for v in range(3) if (pos >> v) & 1)
                and not any(bits[v] for v in range(3) if (neg >> v) & 1)
                for pos, neg in cubes
            )
            assert ntk.simulate(bits) == [expect], (cubes, bits)


class TestSynthesizeTt:
    @pytest.mark.parametrize("method", SYNTHESIS_METHODS)
    @pytest.mark.parametrize("cls", [Aig, Xag, Mig, Xmg])
    def test_known_functions(self, cls, method):
        for tt in [
            TruthTable.from_function(3, lambda a, b, c: (a + b + c) >= 2),
            TruthTable.from_function(3, lambda a, b, c: (a + b + c) % 2 == 1),
            TruthTable.from_function(4, lambda a, b, c, d: (a and b) or (c and d)),
            TruthTable.from_hex(4, "cafe"),
            TruthTable.const(2, True),
            TruthTable.const(2, False),
            TruthTable.var(3, 1),
        ]:
            check_realizes(cls, tt, method)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.sampled_from(SYNTHESIS_METHODS))
    @settings(max_examples=120, deadline=None)
    def test_random_4var_functions_aig(self, bits, method):
        check_realizes(Aig, TruthTable(4, bits), method)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1), st.sampled_from(SYNTHESIS_METHODS))
    @settings(max_examples=60, deadline=None)
    def test_random_4var_functions_xmg(self, bits, method):
        check_realizes(Xmg, TruthTable(4, bits), method)

    def test_leaf_count_mismatch(self):
        ntk = Aig()
        a = ntk.create_pi()
        with pytest.raises(ValueError):
            synthesize_tt(ntk, TruthTable.var(2, 0), [a], method="sop")

    def test_unknown_method(self):
        ntk = Aig()
        a = ntk.create_pi()
        b = ntk.create_pi()
        with pytest.raises(ValueError):
            synthesize_tt(ntk, TruthTable.var(2, 0), [a, b], method="bogus")


class TestRepView:
    def test_mig_view_builds_maj(self):
        mixed = MixedNetwork()
        a = mixed.create_pi()
        b = mixed.create_pi()
        view = rep_view(mixed, Mig)
        g = view.create_and(a, b)
        assert mixed.node_type(g >> 1) == GateType.MAJ

    def test_aig_view_decomposes_maj(self):
        mixed = MixedNetwork()
        a, b, c = (mixed.create_pi() for _ in range(3))
        view = rep_view(mixed, Aig)
        g = view.create_maj(a, b, c)
        # no MAJ nodes created
        assert all(mixed.node_type(n) != GateType.MAJ for n in mixed.gates())
        mixed.create_po(g)
        expect = TruthTable.from_function(3, lambda x, y, z: (x + y + z) >= 2)
        assert mixed.simulate_truth_tables()[0] == expect

    def test_view_shares_storage(self):
        mixed = MixedNetwork()
        a = mixed.create_pi()
        b = mixed.create_pi()
        view = rep_view(mixed, Xmg)
        before = mixed.num_nodes()
        view.create_xor(a, b)
        assert mixed.num_nodes() == before + 1

    def test_rejects_non_network(self):
        mixed = MixedNetwork()
        with pytest.raises(TypeError):
            rep_view(mixed, int)


class TestNpnCostCache:
    def test_cost_positive(self):
        cache = NpnCostCache(Aig)
        tt = TruthTable.from_hex(4, "cafe")
        gates, depth = cache.cost(tt, "sop")
        assert gates > 0 and depth > 0

    def test_cache_hit_consistent(self):
        cache = NpnCostCache(Aig)
        tt = TruthTable.from_hex(4, "cafe")
        assert cache.cost(tt, "dsd") == cache.cost(tt, "dsd")

    def test_npn_invariance(self):
        from repro.truth.npn import apply_transform
        cache = NpnCostCache(Xmg)
        tt = TruthTable.from_hex(4, "1ee1")
        variant = apply_transform(tt, ((2, 0, 3, 1), (True, False, True, False), True))
        assert cache.cost(tt, "dsd") == cache.cost(variant, "dsd")

    def test_xor_cheaper_in_xmg_than_aig(self):
        parity = TruthTable.from_function(3, lambda a, b, c: (a + b + c) % 2 == 1)
        aig_gates, _ = NpnCostCache(Aig).cost(parity, "dsd")
        xmg_gates, _ = NpnCostCache(Xmg).cost(parity, "dsd")
        assert xmg_gates < aig_gates  # the heterogeneity the paper exploits

    def test_best_method_objectives(self):
        cache = NpnCostCache(Aig)
        tt = TruthTable.from_hex(4, "8000")  # AND4
        m_area, g_a, d_a = cache.best_method(tt, "area")
        m_level, g_l, d_l = cache.best_method(tt, "level")
        assert d_l <= d_a or g_a <= g_l

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            NpnCostCache(Aig).best_method(TruthTable.var(2, 0), "speed")


class TestStrategyLibrary:
    def test_candidates_are_equivalent(self):
        mixed = MixedNetwork()
        leaves = [mixed.create_pi() for _ in range(4)]
        tt = TruthTable.from_hex(4, "cafe")
        for strategy in (LEVEL_STRATEGY, AREA_STRATEGY):
            cands = synthesize_candidates(mixed, tt, leaves, strategy, (Aig, Xmg))
            assert cands
            for c in cands:
                n_po = mixed.create_po(c)
                assert mixed.simulate_truth_tables()[n_po] == tt

    def test_candidates_deduped(self):
        mixed = MixedNetwork()
        leaves = [mixed.create_pi() for _ in range(2)]
        tt = TruthTable.from_function(2, lambda a, b: a and b)
        cands = synthesize_candidates(mixed, tt, leaves, AREA_STRATEGY, (Aig, Aig))
        assert len(cands) == len(set(cands))

    def test_bad_objective_rejected(self):
        from repro.synthesis import SynthesisStrategy
        with pytest.raises(ValueError):
            SynthesisStrategy("x", ("sop",), "both")


def _host(seed):
    """A mixed network with PIs and AND gates of varied levels."""
    rng = random.Random(seed)
    ntk = MixedNetwork()
    lits = [ntk.create_pi() for _ in range(8)]
    for _ in range(16):
        a, b = rng.sample(lits, 2)
        lits.append(ntk.create_and(a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)))
    return ntk, lits


def _gate_list(ntk):
    return [(ntk.node_type(n), ntk.fanins(n)) for n in range(ntk.num_nodes())]


def _sample_functions(num_vars, count, seed):
    rng = random.Random(seed)
    return [TruthTable(num_vars, rng.getrandbits(1 << num_vars)) for _ in range(count)]


#: every function of <= 3 inputs, a seeded sample of 4 and 5 inputs
NARROW = ([TruthTable(n, bits) for n in range(4) for bits in range(1 << (1 << n))]
          + _sample_functions(4, 40, 4) + _sample_functions(5, 25, 5))
#: wider than the memo takes
WIDE = _sample_functions(6, 4, 6) + _sample_functions(7, 2, 7) + _sample_functions(8, 2, 8)


class TestSynthesisPlans:
    def _build_all(self, rep, funcs, cold):
        """Every method of every function into one host; (outputs, gates)."""
        ntk, lits = _host(0)
        view = rep_view(ntk, rep)
        rng = random.Random(1)
        outs = []
        for tt in funcs:
            # duplicate, complemented and deep leaves exercise every collapse
            leaves = [rng.choice(lits) ^ rng.randint(0, 1) for _ in range(tt.num_vars)]
            for method in SYNTHESIS_METHODS:
                if cold:
                    _plan_cached.cache_clear()
                outs.append(synthesize_tt(view, tt, leaves, method=method))
        return outs, _gate_list(ntk)

    @pytest.mark.parametrize("rep", [Aig, Xag, Mig, Xmg])
    def test_cold_and_warm_memo_build_identical_networks(self, rep):
        funcs = NARROW + WIDE
        cold = self._build_all(rep, funcs, cold=True)
        for tt in NARROW:   # warm the memo
            for method in SYNTHESIS_METHODS:
                synthesis_plan(tt, method)
        before = synthesis_plan_stats()
        warm = self._build_all(rep, funcs, cold=False)
        after = synthesis_plan_stats()
        assert warm == cold
        assert after["hits"] - before["hits"] == len(NARROW) * len(SYNTHESIS_METHODS)
        assert after["misses"] == before["misses"]

    def test_shared_plan_replays_into_separate_networks(self):
        tt = TruthTable.from_hex(4, "cafe")
        for method in SYNTHESIS_METHODS:
            plan = synthesis_plan(tt, method)
            assert synthesis_plan(tt, method) is plan
            first, lits1 = _host(1)
            second, lits2 = _host(2)
            leaves1 = lits1[-4:]
            leaves2 = [lit ^ 1 for lit in reversed(lits2[8:12])]
            gates2 = _gate_list(second)
            out1 = replay_plan(first, plan, leaves1)
            snapshot = _gate_list(first)
            out2 = replay_plan(second, plan, leaves2)
            assert _gate_list(first) == snapshot    # untouched by the second replay
            assert _gate_list(second)[:len(gates2)] == gates2
            assert replay_plan(first, plan, leaves1) == out1   # strash hit, no new gate
            assert _gate_list(first) == snapshot
            for ntk, leaves, out in ((first, leaves1, out1), (second, leaves2, out2)):
                for lit in [out] + leaves:
                    ntk.create_po(lit)
                got, *leaf_tts = ntk.simulate_truth_tables()[-5:]
                for x in range(1 << ntk.num_pis()):
                    idx = sum(((t.bits >> x) & 1) << i for i, t in enumerate(leaf_tts))
                    assert (got.bits >> x) & 1 == (tt.bits >> idx) & 1, method

    def test_memo_is_bounded_and_skips_wide_functions(self):
        assert PLAN_MEMO_MAX_VARS == 5
        stats = synthesis_plan_stats()
        assert stats["limit"] == PLAN_MEMO_LIMIT
        assert 0 <= stats["size"] <= stats["limit"]
        _plan_cached.cache_clear()
        ntk, lits = _host(3)
        for tt in WIDE:
            for method in SYNTHESIS_METHODS:
                synthesize_tt(ntk, tt, lits[:tt.num_vars], method=method)
        assert synthesis_plan_stats() == {"hits": 0, "misses": 0, "size": 0,
                                          "limit": PLAN_MEMO_LIMIT}
        for tt in NARROW[:50]:
            synthesize_tt(ntk, tt, lits[:tt.num_vars], method="dsd")
        stats = synthesis_plan_stats()
        assert stats["misses"] == stats["size"] == len({(t.num_vars, t.bits)
                                                        for t in NARROW[:50]})
