"""Functional tests for the EPFL-analogue benchmark generators."""

import random

import pytest

from repro.circuits import ALL_BENCHMARKS, build, suite
from repro.circuits.arithmetic import (
    adder,
    barrel_shifter,
    divider,
    hypotenuse,
    log2_circuit,
    max_circuit,
    multiplier,
    square,
    square_root,
)
from repro.circuits.control import decoder, int2float, priority_circuit, voter
from repro.circuits.wordlevel import popcount
from repro.networks import Aig


def word(value, width):
    return [bool((value >> i) & 1) for i in range(width)]


def unword(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


class TestArithmetic:
    def test_adder(self):
        ntk = adder(5)
        rng = random.Random(1)
        for _ in range(30):
            x, y = rng.randrange(32), rng.randrange(32)
            out = ntk.simulate(word(x, 5) + word(y, 5))
            assert unword(out) == x + y

    def test_barrel_shifter(self):
        ntk = barrel_shifter(8)
        rng = random.Random(2)
        for _ in range(30):
            d, s = rng.randrange(256), rng.randrange(8)
            out = ntk.simulate(word(d, 8) + word(s, 3))
            assert unword(out) == d >> s

    def test_divider(self):
        ntk = divider(5)
        rng = random.Random(3)
        for _ in range(30):
            n, d = rng.randrange(32), rng.randrange(1, 32)
            out = ntk.simulate(word(n, 5) + word(d, 5))
            assert unword(out[:5]) == n // d
            assert unword(out[5:]) == n % d

    def test_multiplier(self):
        ntk = multiplier(5)
        rng = random.Random(4)
        for _ in range(30):
            x, y = rng.randrange(32), rng.randrange(32)
            out = ntk.simulate(word(x, 5) + word(y, 5))
            assert unword(out) == x * y

    def test_square(self):
        ntk = square(5)
        for x in range(32):
            assert unword(ntk.simulate(word(x, 5))) == x * x

    def test_square_root(self):
        ntk = square_root(10)
        rng = random.Random(5)
        for _ in range(30):
            x = rng.randrange(1024)
            assert unword(ntk.simulate(word(x, 10))) == int(x ** 0.5)

    def test_hypotenuse(self):
        ntk = hypotenuse(4)
        rng = random.Random(6)
        for _ in range(20):
            a, b = rng.randrange(16), rng.randrange(16)
            got = unword(ntk.simulate(word(a, 4) + word(b, 4)))
            assert got == int((a * a + b * b) ** 0.5)

    def test_max(self):
        ntk = max_circuit(4, 4)
        rng = random.Random(7)
        for _ in range(30):
            ws = [rng.randrange(16) for _ in range(4)]
            bits = []
            for w in ws:
                bits += word(w, 4)
            assert unword(ntk.simulate(bits)) == max(ws)

    def test_log2_integer_part(self):
        ntk = log2_circuit(8, frac_bits=2)
        import math
        for x in range(1, 256):
            out = ntk.simulate(word(x, 8))
            int_bits = out[:3]
            valid = out[-1]
            assert valid
            assert unword(int_bits) == int(math.log2(x))

    def test_log2_zero_invalid(self):
        ntk = log2_circuit(8, frac_bits=2)
        out = ntk.simulate(word(0, 8))
        assert not out[-1]


class TestControl:
    def test_decoder(self):
        ntk = decoder(4)
        for code in range(16):
            out = ntk.simulate(word(code, 4))
            assert sum(out) == 1 and out[code]

    def test_priority(self):
        ntk = priority_circuit(8)
        rng = random.Random(8)
        for _ in range(30):
            req = rng.randrange(256)
            out = ntk.simulate(word(req, 8))
            idx, valid = unword(out[:3]), out[3]
            if req == 0:
                assert not valid
            else:
                assert valid and idx == req.bit_length() - 1

    def test_voter(self):
        ntk = voter(7)
        rng = random.Random(9)
        for _ in range(40):
            bits = [rng.random() < 0.5 for _ in range(7)]
            assert ntk.simulate(bits)[0] == (sum(bits) >= 4)

    def test_voter_rejects_even(self):
        with pytest.raises(ValueError):
            voter(8)

    def test_int2float_monotone_exponent(self):
        ntk = int2float(8, exp_bits=3, man_bits=3)
        for x in (1, 2, 5, 17, 100, 255):
            out = ntk.simulate(word(x, 8))
            exp = unword(out[:3])
            assert exp == x.bit_length() - 1

    def test_popcount(self):
        ntk = Aig()
        xs = [ntk.create_pi() for _ in range(9)]
        for bit in popcount(ntk, xs):
            ntk.create_po(bit)
        rng = random.Random(10)
        for _ in range(30):
            bits = [rng.random() < 0.5 for _ in range(9)]
            assert unword(ntk.simulate(bits)) == sum(bits)

    def test_random_control_deterministic(self):
        from repro.circuits.control import cavlc
        a = cavlc(seed=5)
        b = cavlc(seed=5)
        assert a.num_gates() == b.num_gates()
        from repro.sat import cec
        assert cec(a, b)

    @pytest.mark.parametrize("seed", [3, 7, 9])
    def test_random_control_duplicate_cube_seeds_build(self, seed):
        # these seeds draw repeated cubes for ctrl's shape
        from repro.circuits.control import random_control
        ntk = random_control("ctrl", 7, 25, 6, 5, seed=seed)
        assert ntk.num_pos() == 25 and ntk.num_gates() > 0


class TestRegistry:
    def test_all_benchmarks_build_tiny(self):
        for name in ALL_BENCHMARKS:
            ntk = build(name, "tiny")
            assert ntk.num_gates() > 0
            assert ntk.num_pos() > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build("mystery")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            build("adder", scale="huge")

    def test_suite_subset(self):
        s = suite("tiny", names=["adder", "voter"])
        assert set(s) == {"adder", "voter"}

    def test_scales_grow(self):
        for name in ("adder", "multiplier", "voter"):
            tiny = build(name, "tiny").num_gates()
            small = build(name, "small").num_gates()
            assert tiny < small
