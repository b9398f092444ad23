#!/usr/bin/env python3
"""Unit test of scripts/layer_profile.py's flat-profile parser, run on
tests/layer_profile_flat.txt: an excerpt of `gprof -b -p` output from
one observe_large pass of the PC-sampling build. Standard library only.
"""

import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "layer_profile",
    os.path.join(os.path.dirname(HERE), "scripts", "layer_profile.py"))
layer_profile = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_profile)


class ParseFlat(unittest.TestCase):
    def test_excerpt_sums_by_first_namespace(self):
        with open(os.path.join(HERE, "layer_profile_flat.txt")) as f:
            sums = layer_profile.parse_flat(f.read())
        want = {"tir": 1.09, "mem": 1.21, "htm": 1.26, "vm": 0.43,
                "sim": 1.04, "other": 0.10}
        self.assertEqual(list(sums), list(want))
        for layer, s in want.items():
            self.assertAlmostEqual(sums[layer], s, places=6, msg=layer)

    def test_symbol_layers(self):
        cases = {
            # A std:: wrapper around a sim lambda is sim's time.
            "std::_Function_handler<bool (unsigned long), hintm::sim::"
            "(anonymous namespace)::Machine::Machine()::{lambda(unsigned "
            "long)#5}>::_M_invoke(std::_Any_data const&)": "sim",
            # The first namespace wins, not a later argument's.
            "hintm::compiler::PointsTo::collectObjects(hintm::tir::Module "
            "const&)": "other",
            "hintm::Log2Hist::add(unsigned long)": "other",
            "memcpy": "other",
            "hintm::vm::Tlb::insert(unsigned long, hintm::vm::PageState)":
                "vm",
        }
        for symbol, layer in cases.items():
            self.assertEqual(layer_profile.layer_of(symbol), layer, symbol)

    def test_instrumented_rows_with_call_counts(self):
        text = (" 15.80      1.18     1.18 117000000     0.00     0.00  "
                "hintm::htm::TxBuffer::find(unsigned long) const\n"
                "  2.00      1.33     0.15   807000     0.00     0.00  "
                "hintm::vm::Tlb::evictLru()\n")
        sums = layer_profile.parse_flat(text)
        self.assertAlmostEqual(sums["htm"], 1.18)
        self.assertAlmostEqual(sums["vm"], 0.15)

    def test_headers_and_blank_lines_are_skipped(self):
        sums = layer_profile.parse_flat(
            "Flat profile:\n\nEach sample counts as 0.01 seconds.\n"
            "  %   cumulative   self              self     total\n"
            " time   seconds   seconds    calls  Ts/call  Ts/call  name\n")
        self.assertEqual(sum(sums.values()), 0.0)


if __name__ == "__main__":
    unittest.main()
