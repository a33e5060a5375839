"""Tests for the standard-cell library, Boolean matcher and ASIC mapper."""

import sys

import pytest

from repro.circuits import build
from repro.core import MchParams, build_mch
from repro.mapping import (
    MatchTable,
    asap7_library,
    asic_map,
    parse_genlib,
    write_genlib,
)
from repro.mapping.library import parse_expression
from repro.networks import Aig, Xag, Xmg
from repro.sat import cec
from repro.truth.truth_table import TruthTable


class TestLibrary:
    def test_asap7_has_inverter_and_core_cells(self):
        lib = asap7_library()
        assert lib.inverter is not None
        names = {c.name for c in lib}
        for need in ("INVx1", "NAND2x1", "XOR2x1", "MAJx2", "O21BAIx1"):
            assert need in names

    def test_cell_functions(self):
        lib = asap7_library()
        nand2 = lib.cell("NAND2x1")
        assert nand2.function == ~(TruthTable.var(2, 0) & TruthTable.var(2, 1))
        maj = lib.cell("MAJx2")
        expect = TruthTable.from_function(3, lambda a, b, c: (a + b + c) >= 2)
        assert maj.function == expect

    def test_expression_parser(self):
        tt, pins = parse_expression("!((A*B)+C)")
        assert pins == ["A", "B", "C"]
        expect = TruthTable.from_function(3, lambda a, b, c: not ((a and b) or c))
        assert tt == expect

    def test_expression_parser_xor_prime(self):
        tt, pins = parse_expression("A^B'")
        expect = TruthTable.from_function(2, lambda a, b: a != (not b))
        assert tt == expect

    def test_genlib_roundtrip(self):
        lib = asap7_library()
        text = write_genlib(lib)
        lib2 = parse_genlib(text, name="roundtrip")
        assert len(lib2) == len(lib)
        for cell in lib:
            c2 = lib2.cell(cell.name)
            assert c2.function == cell.function
            assert c2.area == pytest.approx(cell.area)
            assert c2.pin_delays == pytest.approx(cell.pin_delays)

    def test_genlib_parse_basic(self):
        text = """
        GATE inv 1.0 O=!A; PIN * INV 1 999 1.0 0.0 1.0 0.0
        GATE nand2 2.0 O=!(A*B); PIN * INV 1 999 1.5 0.0 1.5 0.0
        """
        lib = parse_genlib(text)
        assert len(lib) == 2
        assert lib.inverter.name == "inv"


class TestMatcher:
    def test_and2_matches(self):
        table = MatchTable(asap7_library())
        tt = TruthTable.from_function(2, lambda a, b: a and b)
        matches = table.lookup(tt)
        assert any(m.cell.name == "AND2x2" for m in matches)

    def test_nand_with_phases(self):
        table = MatchTable(asap7_library())
        # !a AND b should match NOR2 with one complemented pin, etc.
        tt = TruthTable.from_function(2, lambda a, b: (not a) and b)
        matches = table.lookup(tt)
        assert matches
        # verify one match semantically
        m = matches[0]
        cell_tt = m.cell.function
        for x in range(4):
            leaf_vals = [bool((x >> i) & 1) for i in range(2)]
            pin_vals = []
            for pin in range(m.cell.num_pins):
                v = leaf_vals[m.leaf_of_pin[pin]] ^ m.pin_phases[pin]
                pin_vals.append(v)
            assert cell_tt.evaluate(pin_vals) == tt.evaluate(leaf_vals)

    def test_all_matches_semantically_correct(self):
        table = MatchTable(asap7_library())
        for tt in [
            TruthTable.from_hex(3, "e8"),
            TruthTable.from_hex(3, "96"),
            TruthTable.from_function(3, lambda a, b, c: not ((a or b) and (not c))),
        ]:
            for m in table.lookup(tt):
                for x in range(1 << tt.num_vars):
                    leaf_vals = [bool((x >> i) & 1) for i in range(tt.num_vars)]
                    pin_vals = [
                        leaf_vals[m.leaf_of_pin[p]] ^ m.pin_phases[p]
                        for p in range(m.cell.num_pins)
                    ]
                    assert m.cell.function.evaluate(pin_vals) == tt.evaluate(leaf_vals)

    def test_no_match_for_exotic(self):
        table = MatchTable(asap7_library())
        # a 4-input prime function unlikely to be a single cell
        tt = TruthTable.from_hex(4, "16e9")
        for m in table.lookup(tt):
            assert m.cell.num_pins == 4  # if matched at all, must be 4-pin


class TestAsicMapper:
    @pytest.mark.parametrize("objective", ["delay", "area"])
    def test_equivalence(self, objective):
        ntk = build("adder", "tiny")
        nl = asic_map(ntk, objective=objective)
        assert cec(ntk, nl.to_logic_network(Aig))
        assert nl.area() > 0 and nl.delay() > 0

    def test_delay_map_faster_than_area_map(self):
        ntk = build("max", "tiny")
        d = asic_map(ntk, objective="delay")
        a = asic_map(ntk, objective="area")
        assert d.delay() <= a.delay()
        assert a.area() <= d.area()

    def test_po_polarity(self):
        ntk = Aig()
        a = ntk.create_pi()
        b = ntk.create_pi()
        g = ntk.create_and(a, b)
        ntk.create_po(g ^ 1)  # complemented PO
        nl = asic_map(ntk)
        assert nl.simulate([True, True]) == [False]
        assert nl.simulate([True, False]) == [True]

    def test_po_on_pi_and_const(self):
        ntk = Aig()
        a = ntk.create_pi()
        ntk.create_po(a ^ 1)
        ntk.create_po(ntk.const1)
        nl = asic_map(ntk)
        assert nl.simulate([False]) == [True, True]
        assert nl.simulate([True]) == [False, True]

    def test_mch_improves_delay_on_adder(self):
        ntk = build("adder", "tiny")
        plain = asic_map(ntk, objective="delay")
        ch = build_mch(ntk, MchParams(representations=(Xmg, Xag), ratio=0.8))
        mch = asic_map(ch, objective="delay")
        assert mch.delay() <= plain.delay()
        assert cec(ntk, mch.to_logic_network(Aig))

    def test_mixed_network_subject(self):
        # mapping an XMG directly (MAJ/XOR3 gates) must work via MAJ cells
        ntk = Xmg()
        a, b, c = (ntk.create_pi() for _ in range(3))
        ntk.create_po(ntk.create_maj(a, b, c))
        ntk.create_po(ntk.create_xor3(a, b, c))
        nl = asic_map(ntk)
        assert cec(ntk, nl.to_logic_network(Aig))
        assert any(name.startswith(("MAJ", "XOR3", "XNOR3")) for name in nl.cell_histogram())

    def test_histogram_and_verilog(self):
        from repro.io import write_verilog_netlist

        ntk = build("ctrl", "tiny")
        nl = asic_map(ntk, objective="area")
        hist = nl.cell_histogram()
        assert sum(hist.values()) == nl.num_cells()
        v = write_verilog_netlist(nl)
        assert v.startswith("module top") and v.rstrip().endswith("endmodule")


# A small library whose cells tie in area (and2/and2b are the same cell under
# two names), so the mapper's first-minimum tie-break decides the cover.
TIE_GENLIB = """
GATE inv   1.0 O=!A;        PIN * INV 1 999 1.0 0.0 1.0 0.0
GATE buf   2.0 O=A;         PIN * NONINV 1 999 1.0 0.0 1.0 0.0
GATE nand2 2.0 O=!(A*B);    PIN * INV 1 999 1.0 0.0 1.0 0.0
GATE nor2  2.0 O=!(A+B);    PIN * INV 1 999 1.0 0.0 1.0 0.0
GATE and2  2.0 O=A*B;       PIN * NONINV 1 999 1.0 0.0 1.0 0.0
GATE or2   2.0 O=A+B;       PIN * NONINV 1 999 1.0 0.0 1.0 0.0
GATE and2b 2.0 O=A*B;       PIN * NONINV 1 999 1.0 0.0 1.0 0.0
GATE xor2  3.0 O=A^B;       PIN * UNKNOWN 1 999 2.0 0.0 2.0 0.0
GATE xnor2 3.0 O=!(A^B);    PIN * UNKNOWN 1 999 2.0 0.0 2.0 0.0
GATE aoi21 3.0 O=!(A*B+C);  PIN * INV 1 999 1.5 0.0 1.5 0.0
GATE oai21 3.0 O=!((A+B)*C); PIN * INV 1 999 1.5 0.0 1.5 0.0
"""

# (circuit, subject, objective) -> exact (area, delay) on ASAP7
GOLDEN_ASAP7 = {
    ("adder", "aig", "delay"): (4.942, 96.0),
    ("adder", "aig", "area"): (3.267000000000001, 136.0),
    ("adder", "mch", "delay"): (4.982, 88.0),
    ("adder", "mch", "area"): (3.3219999999999996, 132.0),
    ("ctrl", "aig", "delay"): (16.525000000000006, 60.0),
    ("ctrl", "aig", "area"): (15.984000000000004, 74.0),
    ("ctrl", "mch", "delay"): (17.174000000000014, 57.0),
    ("ctrl", "mch", "area"): (16.551000000000013, 69.0),
    ("int2float", "aig", "delay"): (5.183999999999998, 84.0),
    ("int2float", "aig", "area"): (4.105, 105.0),
    ("int2float", "mch", "delay"): (5.103, 84.0),
    ("int2float", "mch", "area"): (4.077999999999999, 105.0),
    ("router", "aig", "delay"): (13.270999999999992, 66.0),
    ("router", "aig", "area"): (12.905999999999995, 75.0),
    ("router", "mch", "delay"): (13.189999999999994, 71.0),
    ("router", "mch", "area"): (13.040999999999995, 76.0),
}

# (circuit, objective) -> exact (area, delay, cell histogram) on TIE_GENLIB
GOLDEN_TIE = {
    ("adder", "delay"): (70.0, 13.5, {"and2": 1, "nand2": 10, "oai21": 5, "xor2": 11}),
    ("ctrl", "area"): (484.0, 7.5, {"and2": 22, "aoi21": 47, "inv": 7, "nand2": 21,
                                    "nor2": 23, "oai21": 52, "or2": 24}),
    ("int2float", "delay"): (122.0, 10.5, {"and2": 12, "aoi21": 9, "inv": 4, "nor2": 8,
                                           "oai21": 9, "or2": 12}),
    ("router", "area"): (428.0, 9.0, {"and2": 20, "aoi21": 22, "inv": 12, "nand2": 38,
                                      "nor2": 30, "oai21": 38, "or2": 30}),
}


class TestAsicGolden:
    """Exact Table-I QoR: a mapper change that moves any float fails here."""

    @pytest.mark.parametrize("name", ["adder", "ctrl", "int2float", "router"])
    def test_asap7_area_delay_exact(self, name):
        ntk = build(name, "tiny")
        subjects = {
            "aig": ntk,
            "mch": build_mch(ntk, MchParams(representations=(Xmg, Xag), ratio=0.8)),
        }
        for kind, subject in subjects.items():
            for objective in ("delay", "area"):
                nl = asic_map(subject, objective=objective)
                assert (nl.area(), nl.delay()) == GOLDEN_ASAP7[(name, kind, objective)], \
                    (name, kind, objective)

    @pytest.mark.parametrize("name,objective", sorted(GOLDEN_TIE))
    def test_tied_library_exact(self, name, objective):
        lib = parse_genlib(TIE_GENLIB, name="tie")
        nl = asic_map(build(name, "tiny"), library=lib, objective=objective)
        area, delay, hist = GOLDEN_TIE[(name, objective)]
        assert (nl.area(), nl.delay()) == (area, delay)
        assert nl.cell_histogram() == hist  # first of the tied and2/and2b wins


def test_asic_map_restores_recursion_limit():
    ntk = build("adder", "tiny")
    saved = sys.getrecursionlimit()
    low = 1100  # below the 4 * nodes + 1000 the mapper asks for
    assert 4 * ntk.num_nodes() + 1000 > low
    sys.setrecursionlimit(low)
    try:
        asic_map(ntk)
        assert sys.getrecursionlimit() == low
    finally:
        sys.setrecursionlimit(saved)
