"""Fixture-driven tests for the repro-ssd lint rules.

One good/bad snippet pair per rule, written into a throwaway tree and
linted with the real engine, so every rule's detection logic and its
allowlists/exemptions are pinned by example.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.core import PARSE_ERROR_RULE


def lint_snippet(tmp_path: Path, relpath: str, code: str,
                 select: "list[str] | None" = None):
    """Write ``code`` at ``relpath`` under a scratch tree and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    result = run_lint(tmp_path, select=select)
    return [v.rule for v in result.violations], result


# --------------------------------------------------------------------------
# D001 — randomness


def test_d001_flags_random_import(tmp_path):
    rules, _ = lint_snippet(tmp_path, "traces/synth.py", """
        import random

        def pick():
            return random.random()
        """)
    assert rules.count("D001") >= 2  # the import and the call chain


@pytest.mark.parametrize("stmt", [
    "from random import shuffle",
    "import uuid",
    "from os import urandom",
    "from numpy import random",
    "from numpy.random import default_rng",
])
def test_d001_flags_random_source_imports(tmp_path, stmt):
    rules, _ = lint_snippet(tmp_path, "core/mod.py", f"{stmt}\n")
    assert "D001" in rules


def test_d001_flags_unseeded_default_rng(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/gc.py", """
        import numpy as np

        def roll():
            return np.random.default_rng().integers(10)
        """)
    assert "D001" in rules


def test_d001_good_path_uses_make_rng(tmp_path):
    rules, _ = lint_snippet(tmp_path, "traces/synth.py", """
        from repro.rng import make_rng

        def roll(seed):
            return make_rng(seed, key="roll").integers(10)
        """)
    assert "D001" not in rules


def test_d001_flags_fault_injector_direct_randomness(tmp_path):
    """Fault injectors are not exempt: sampling outside the dedicated
    ``faults`` stream would break the rate-0 bit-identity contract."""
    rules, _ = lint_snippet(tmp_path, "faults/plan.py", """
        import numpy as np

        def program_fails(rate):
            return np.random.default_rng().random() < rate
        """)
    assert "D001" in rules


def test_d001_flags_fault_injector_stdlib_random(tmp_path):
    rules, _ = lint_snippet(tmp_path, "faults/plan.py", """
        import random

        def erase_fails(rate):
            return random.random() < rate
        """)
    assert rules.count("D001") >= 2  # the import and the call chain


def test_d001_good_fault_injector_uses_faults_rng(tmp_path):
    rules, _ = lint_snippet(tmp_path, "faults/plan.py", """
        from repro.rng import faults_rng

        def program_fails(seed, rate):
            return faults_rng(seed, "program").random() < rate
        """)
    assert "D001" not in rules


def test_d001_allows_rng_module_itself(tmp_path):
    rules, _ = lint_snippet(tmp_path, "rng.py", """
        import numpy as np

        def make_rng(seed):
            return np.random.default_rng(seed)
        """)
    assert "D001" not in rules


def test_d001_flags_seeded_generator_construction(tmp_path):
    """An explicit seed does not excuse the construction: the stream
    still bypasses the make_rng key-derivation scheme."""
    rules, _ = lint_snippet(tmp_path, "traces/synth.py", """
        import numpy as np

        def streams(seed):
            return np.random.Generator(np.random.PCG64(seed))
        """)
    assert "D001" in rules


def test_d001_flags_generator_under_numpy_alias(tmp_path):
    """``import numpy as anything`` is tracked, not just ``np``."""
    rules, _ = lint_snippet(tmp_path, "core/model.py", """
        import numpy as xp

        def roll(seed):
            return xp.random.default_rng(seed).integers(10)
        """)
    assert "D001" in rules


def test_d001_flags_imported_constructor_call(tmp_path):
    """Both the from-import and the aliased construction are findings."""
    rules, _ = lint_snippet(tmp_path, "ftl/gc.py", """
        from numpy.random import default_rng as mk

        def roll(seed):
            return mk(seed).integers(10)
        """)
    assert rules.count("D001") >= 2  # the import and the construction


def test_d001_flags_legacy_randomstate(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/noise.py", """
        import numpy as np

        def legacy(seed):
            return np.random.RandomState(seed)
        """)
    assert "D001" in rules


def test_d001_good_numpy_array_use_not_flagged(tmp_path):
    """Plain numpy (non-random) use under an alias stays clean."""
    rules, _ = lint_snippet(tmp_path, "nand/state.py", """
        import numpy as xp

        def zeros(n):
            return xp.zeros(n, dtype=xp.int64)
        """)
    assert "D001" not in rules


def test_d001_rng_module_may_construct_generators(tmp_path):
    rules, _ = lint_snippet(tmp_path, "rng.py", """
        from numpy.random import PCG64, Generator

        def make_rng(seed):
            return Generator(PCG64(seed))
        """)
    assert "D001" not in rules


# --------------------------------------------------------------------------
# D002 — wall clock


def test_d002_flags_wall_clock_outside_allowlist(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/gc.py", """
        import time

        def scan():
            return time.perf_counter()
        """)
    assert "D002" in rules


def test_d002_flags_from_time_import(tmp_path):
    rules, _ = lint_snippet(tmp_path, "metrics/report.py",
                            "from time import perf_counter\n")
    assert "D002" in rules


def test_d002_flags_front_end_replay(tmp_path):
    # The front-end replay's wall clock lives in the shared run template
    # in sim/simulator.py; its own module is no longer allowlisted.
    rules, _ = lint_snippet(tmp_path, "frontend/simulate.py", """
        import time

        def run():
            return time.perf_counter()
        """)
    assert "D002" in rules


def test_d002_flags_datetime_now(tmp_path):
    rules, _ = lint_snippet(tmp_path, "experiments/runner.py", """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """)
    assert "D002" in rules


@pytest.mark.parametrize("relpath", [
    "sim/simulator.py", "ftl/victim.py",
])
def test_d002_allowlisted_diagnostic_modules(tmp_path, relpath):
    rules, _ = lint_snippet(tmp_path, relpath, """
        import time

        def wall():
            return time.perf_counter()
        """)
    assert "D002" not in rules


def test_d002_good_path_uses_modelled_time(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/gc.py", """
        def cost_ms(timing, pages):
            return timing.erase_ms + pages * timing.slc_read_ms
        """)
    assert "D002" not in rules


# --------------------------------------------------------------------------
# D003 — set iteration order


def test_d003_flags_for_over_set_call(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", """
        def drain(ids):
            out = []
            for i in set(ids):
                out.append(i)
            return out
        """)
    assert "D003" in rules


def test_d003_flags_annotated_set_attribute(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", """
        class Index:
            def __init__(self):
                self.dirty: set[int] = set()

            def flush(self):
                for bid in self.dirty:
                    yield bid
        """)
    assert "D003" in rules


def test_d003_flags_list_of_set(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/x.py", """
        def order(ids):
            pending = {i for i in ids}
            return list(pending)
        """)
    assert "D003" in rules


def test_d003_good_sorted_iteration(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", """
        class Index:
            def __init__(self):
                self.dirty: set[int] = set()

            def flush(self):
                for bid in sorted(self.dirty):
                    yield bid

        def order(ids):
            return sorted(set(ids))

        def member(ids, x):
            return x in set(ids)
        """)
    assert "D003" not in rules


def test_d003_only_applies_to_simulation_state_dirs(tmp_path):
    rules, _ = lint_snippet(tmp_path, "metrics/x.py", """
        def drain(ids):
            for i in set(ids):
                yield i
        """)
    assert "D003" not in rules


# --------------------------------------------------------------------------
# S002 — Block counter writes


def test_s002_flags_counter_assignment(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", """
        def hack(block, page):
            block.valid_mask[page] = 0
        """)
    assert "S002" in rules


def test_s002_flags_augmented_assignment(tmp_path):
    rules, _ = lint_snippet(tmp_path, "core/x.py", """
        def hack(block):
            block.n_valid += 1
        """)
    assert "S002" in rules


def test_s002_flags_mutator_call(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/x.py", """
        def hack(block, page):
            block.disturb_in[page].append(1)
        """)
    assert "S002" in rules


def test_s002_allows_block_module_and_reads(tmp_path):
    good = """
        def owner_mutation(self, page, n):
            self.valid_mask[page] |= n

        def reader(block, page):
            return block.valid_mask[page] == 0
        """
    rules, _ = lint_snippet(tmp_path, "nand/block.py", good)
    assert "S002" not in rules
    rules, _ = lint_snippet(tmp_path, "ftl/read_only.py", """
        def reader(block, page):
            return block.valid_mask[page] + block.n_valid
        """)
    assert "S002" not in rules


# --------------------------------------------------------------------------
# C001 — magic literals


def test_c001_flags_magic_size(tmp_path):
    rules, _ = lint_snippet(tmp_path, "error/x.py", """
        def codewords(code):
            return code.codewords_for(4096)
        """)
    assert "C001" in rules


def test_c001_flags_magic_latency(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/x.py", """
        def latency(n):
            return n * 0.3
        """)
    assert "C001" in rules


def test_c001_exempts_declared_defaults(tmp_path):
    rules, _ = lint_snippet(tmp_path, "error/x.py", """
        from dataclasses import dataclass

        SECTOR_BYTES = 512

        @dataclass
        class Code:
            payload_bytes: int = 512

        def f(size=4096):
            return size
        """)
    assert "C001" not in rules


def test_c001_only_applies_to_modelled_dirs(tmp_path):
    rules, _ = lint_snippet(tmp_path, "metrics/x.py", """
        def f():
            return 4096
        """)
    assert "C001" not in rules


# --------------------------------------------------------------------------
# engine behaviour


def test_suppression_comment_on_line(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", """
        def drain(ids):
            for i in set(ids):  # repro-lint: disable=D003
                yield i
        """)
    assert "D003" not in rules


def test_suppression_is_rule_specific(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", """
        def drain(ids):
            for i in set(ids):  # repro-lint: disable=C001
                yield i
        """)
    assert "D003" in rules


def test_file_level_suppression(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", """
        # repro-lint: disable-file=D003
        def drain(ids):
            for i in set(ids):
                yield i

        def more(ids):
            return list(set(ids))
        """)
    assert "D003" not in rules


def test_parse_error_is_reported_not_raised(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/x.py", "def broken(:\n")
    assert rules == [PARSE_ERROR_RULE]


def test_select_restricts_rules(tmp_path):
    rules, result = lint_snippet(tmp_path, "ftl/x.py", """
        import random

        def drain(ids):
            for i in set(ids):
                yield i
        """, select=["D003"])
    assert set(rules) == {"D003"}
    assert result.rules_run == ["D003"]


def test_select_unknown_rule_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint(tmp_path, select=["Z999"])


def test_violations_carry_stable_fingerprints(tmp_path):
    code = """
        def drain(ids):
            for i in set(ids):
                yield i
        """
    _, first = lint_snippet(tmp_path, "ftl/x.py", code)
    # Shift the offending line down; the fingerprint must not move.
    shifted = "# a new leading comment\n" + textwrap.dedent(code)
    (tmp_path / "ftl/x.py").write_text(shifted, encoding="utf-8")
    second = run_lint(tmp_path)
    assert [v.fingerprint for v in first.violations] == \
        [v.fingerprint for v in second.violations]
    assert first.violations[0].line != second.violations[0].line


# --------------------------------------------------------------------------
# U001 — mixed-unit arithmetic


def test_u001_flags_ms_plus_bytes(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def cost(delay_ms, size_bytes):
            return delay_ms + size_bytes
        """, select=["U"])
    assert "U001" in rules


def test_u001_flags_ms_compared_to_bytes(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def throttle(delay_ms, size_bytes):
            return delay_ms > size_bytes
        """, select=["U"])
    assert "U001" in rules


def test_u001_flags_ms_times_ms(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def wrong(read_ms, write_ms):
            return read_ms * write_ms
        """, select=["U"])
    assert "U001" in rules


def test_u001_flags_mix_inside_match_case(tmp_path):
    """``match`` arms and guards are analysed like ``if`` branches."""
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def cost(kind, delay_ms, size_bytes):
            match kind:
                case "read":
                    total = delay_ms + size_bytes
                case _ if delay_ms > size_bytes:
                    total = 0
            return total
        """, select=["U"])
    assert rules == ["U001", "U001"]


def test_u001_flags_mix_inside_async_for(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        async def cost(stream, delay_ms, size_bytes):
            async for _ in stream:
                total = delay_ms + size_bytes
            return total
        """, select=["U"])
    assert rules == ["U001"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11+")
def test_u001_flags_mix_inside_try_star(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def cost(delay_ms, size_bytes):
            try:
                total = delay_ms + size_bytes
            except* ValueError:
                total = size_bytes - delay_ms
            return total
        """, select=["U"])
    assert rules == ["U001", "U001"]


def test_u001_good_same_unit_and_counts(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def total(read_ms, write_ms, n_requests):
            per_req = read_ms + write_ms
            return per_req * n_requests
        """, select=["U"])
    assert rules == []


def test_u001_vocab_annotation_beats_name_convention(tmp_path):
    # The *annotation* says Ms, despite the byte-ish parameter name: the
    # addition is ms + ms, and must stay silent.
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def total(transfer_bytes: Ms, decode_ms: Ms):
            return transfer_bytes + decode_ms
        """, select=["U"])
    assert rules == []


# --------------------------------------------------------------------------
# U002 — address-space confusion


def test_u002_flags_lsn_passed_to_lpn_param(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/map.py", """
        def lookup(lpn: Lpn):
            return lpn

        def read(lsn: Lsn):
            return lookup(lsn)
        """, select=["U"])
    assert "U002" in rules


def test_u002_good_converted_before_call(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/map.py", """
        def lookup(lpn: Lpn):
            return lpn

        def lpn_of(lsn: Lsn) -> Lpn:
            return lsn // 4

        def read(lsn: Lsn):
            return lookup(lpn_of(lsn))
        """, select=["U"])
    assert rules == []


def test_u002_flags_wrong_mapping_subscript(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/map.py", """
        def read(pages_by_lpn, lsn):
            return pages_by_lpn[lsn]
        """, select=["U"])
    assert "U002" in rules


def test_u002_good_matching_subscript(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/map.py", """
        def read(pages_by_lpn, lpn):
            return pages_by_lpn[lpn]
        """, select=["U"])
    assert rules == []


def test_u002_flags_membership_in_wrong_domain(tmp_path):
    rules, _ = lint_snippet(tmp_path, "ftl/map.py", """
        def cached(dirty_by_lpn, lsn):
            return lsn in dirty_by_lpn
        """, select=["U"])
    assert "U002" in rules


# --------------------------------------------------------------------------
# U003 — lossy/unconverted boundary crossings


def test_u003_flags_kib_plus_bytes(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/mod.py", """
        def capacity(size_kib, spare_bytes):
            return size_kib + spare_bytes
        """, select=["U"])
    assert "U003" in rules


def test_u003_flags_double_byte_scaling(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/mod.py", """
        from repro.units import KIB

        def grow(size_bytes):
            return size_bytes * KIB
        """, select=["U"])
    assert "U003" in rules


def test_u003_flags_us_factor_on_ms(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        from repro.units import US

        def convert(delay_ms):
            return delay_ms * US
        """, select=["U"])
    assert "U003" in rules


def test_u003_good_scaled_before_mixing(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/mod.py", """
        from repro.units import KIB, US

        def capacity(size_kib, spare_bytes):
            return size_kib * KIB + spare_bytes

        def total(delay_us, decode_ms):
            return delay_us * US + decode_ms
        """, select=["U"])
    assert rules == []


def test_u003_flags_raw_kib_passed_to_bytes_param(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/mod.py", """
        def alloc(n: Bytes):
            return n

        def grow(size_kib):
            return alloc(size_kib)
        """, select=["U"])
    assert "U003" in rules


# --------------------------------------------------------------------------
# U-family — interprocedural propagation and engine plumbing


def test_unit_fact_propagates_across_call_edge(tmp_path):
    # ``base_cost`` has no annotation and no name convention: its ms
    # return unit exists only because the fixpoint inferred it from the
    # body.  The call site then mixes that inferred ms with bytes.
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def base_cost(t_ms):
            return t_ms + 0.1

        def total(size_bytes):
            return base_cost(0.2) + size_bytes
        """, select=["U"])
    assert "U001" in rules


@pytest.mark.parametrize("depth", [3, 4, 8])
def test_unit_fact_propagates_up_unannotated_helper_chain(tmp_path, depth):
    # ``check`` -> ``a`` -> ``b`` -> … -> the last helper, which returns
    # ``settle_ms``.  The helpers are analysed in name order, each caller
    # before its callee, so each round of return-unit inference carries
    # the ms fact one helper further up; rounds must repeat until none
    # changes a summary before ``check`` sees ms meet bytes.
    names = [chr(ord("a") + i) for i in range(depth)]
    helpers = [f"def {caller}():\n    return {callee}()\n"
               for caller, callee in zip(names, names[1:])]
    helpers.append(f"def {names[-1]}(settle_ms=0.5):\n    return settle_ms\n")
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", "\n".join(helpers) + """
def check(size_bytes):
    return a() + size_bytes
""", select=["U"])
    assert rules == ["U001"]


def test_unit_fact_propagates_across_modules(tmp_path):
    # The ms fact crosses a file boundary through the import graph.
    geom = tmp_path / "sim" / "timing.py"
    geom.parent.mkdir(parents=True, exist_ok=True)
    geom.write_text(textwrap.dedent("""
        def decode_cost(rber) -> Ms:
            return 0.1
        """), encoding="utf-8")
    rules, _ = lint_snippet(tmp_path, "ftl/read.py", """
        from sim.timing import decode_cost

        def total(size_bytes):
            return decode_cost(0.01) + size_bytes
        """, select=["U"])
    assert "U001" in rules


def test_u_rules_are_conservative_on_unknowns(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def mix(a, b, count):
            return a + b * count
        """, select=["U"])
    assert rules == []


def test_u_rule_line_suppression(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        def cost(delay_ms, size_bytes):
            return delay_ms + size_bytes  # repro-lint: disable=U001
        """, select=["U"])
    assert rules == []


def test_u_rule_file_suppression(tmp_path):
    rules, _ = lint_snippet(tmp_path, "sim/mod.py", """
        # repro-lint: disable-file=U001
        def cost(delay_ms, size_bytes):
            return delay_ms + size_bytes
        """, select=["U"])
    assert rules == []


# --------------------------------------------------------------------------
# --select rule-family prefixes


def test_select_family_prefix_expands(tmp_path):
    _, result = lint_snippet(tmp_path, "ftl/x.py", "x = 1\n", select=["U"])
    assert result.rules_run == ["U001", "U002", "U003"]


def test_select_prefix_d_expands(tmp_path):
    _, result = lint_snippet(tmp_path, "ftl/x.py", "x = 1\n", select=["D"])
    assert result.rules_run == ["D001", "D002", "D003"]


def test_select_mixes_ids_and_prefixes(tmp_path):
    _, result = lint_snippet(tmp_path, "ftl/x.py", "x = 1\n",
                             select=["D001", "U"])
    assert result.rules_run == ["D001", "U001", "U002", "U003"]


def test_select_unknown_prefix_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint(tmp_path, select=["Q"])


# --------------------------------------------------------------------------
# M001 — state write reachable before a raise-capable validation


def test_m001_flags_write_before_raise(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def program(self, page, mask):
                self.next_page += 1
                if mask == 0:
                    raise ValueError("empty mask")
                self.pass_counts[page] += 1
        """, select=["M"])
    assert "M001" in rules


def test_m001_flags_write_before_validator_call(tmp_path):
    """The interprocedural shape: the raise lives in a called pure
    validator, not in the mutating method itself."""
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def check_mask(self, mask):
                if mask < 0:
                    raise ValueError("bad mask")

            def program(self, page, mask):
                self.next_page += 1
                self.check_mask(mask)
                self.pass_counts[page] += 1
        """, select=["M"])
    assert "M001" in rules


def test_m001_flags_cross_function_validator(tmp_path):
    """Validator raise facts propagate over module-level call edges."""
    rules, _ = lint_snippet(tmp_path, "ftl/base.py", """
        def check_budget(n):
            if n < 0:
                raise ValueError("negative budget")

        class Ftl:
            def reserve(self, n):
                self.reserved += n
                check_budget(n)
        """, select=["M"])
    assert "M001" in rules


def test_m001_flags_partial_batch_loop(tmp_path):
    """PR 7 regression shape: ``invalidate_many`` validating inside the
    mutation loop, so a bad slot mid-batch leaves earlier slots already
    invalidated."""
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def invalidate_many(self, slots):
                valid_f = self.region.valid
                for slot in slots:
                    if slot < 0:
                        raise ValueError("bad slot")
                    valid_f[slot] = False
        """, select=["M"])
    assert "M001" in rules


def test_m001_good_validate_then_write(tmp_path):
    """PR 7's *fix* shape: every raise-capable check precedes the first
    state write (including the two-loop batch form)."""
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def check_mask(self, mask):
                if mask < 0:
                    raise ValueError("bad mask")

            def program(self, page, mask):
                if mask == 0:
                    raise ValueError("empty mask")
                self.check_mask(mask)
                self.pass_counts[page] += 1
                self.next_page += 1

            def invalidate_many(self, slots):
                valid_f = self.region.valid
                for slot in slots:
                    if slot < 0:
                        raise ValueError("bad slot")
                for slot in slots:
                    valid_f[slot] = False
        """, select=["M001"])
    assert rules == []


def test_m001_good_early_return_branch(tmp_path):
    """Writes on a branch that returns never reach a later raise."""
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def maybe(self, fast, mask):
                if fast:
                    self.next_page += 1
                    return True
                if mask == 0:
                    raise ValueError("empty mask")
                return False
        """, select=["M"])
    assert rules == []


def test_m001_good_write_inside_try(tmp_path):
    """A raise under an exception handler is a handled path, not a torn
    exit."""
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def program(self, page):
                self.next_page += 1
                try:
                    if page < 0:
                        raise ValueError("bad page")
                except ValueError:
                    self.next_page -= 1
        """, select=["M"])
    assert rules == []


def test_m001_good_transition_call_after_write(tmp_path):
    """Calling a method that both raises and writes is a state
    transition (``block.retire()``), not a validation point."""
    rules, _ = lint_snippet(tmp_path, "nand/flash.py", """
        class Block:
            def retire(self):
                if self.bad:
                    raise ValueError("cannot retire")
                self.state = "retired"

        class Flash:
            def erase(self, block: Block):
                self.erases += 1
                block.retire()
        """, select=["M001"])
    assert rules == []


def test_m001_exempts_init_and_other_dirs(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def __init__(self, config):
                self.next_page = 0
                if config is None:
                    raise ValueError("no config")
        """, select=["M"])
    assert rules == []
    rules, _ = lint_snippet(tmp_path, "metrics/latency.py", """
        class Tracker:
            def add(self, value):
                self.total += value
                if value < 0:
                    raise ValueError("negative latency")
        """, select=["M"])
    assert rules == []


def test_m001_line_suppression(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def program(self, page, mask):
                self.next_page += 1
                if mask == 0:
                    raise ValueError("empty")  # repro-lint: disable=M001
        """, select=["M"])
    assert rules == []


def test_m001_flags_torn_write_inside_match_case(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def program(self, page, mask):
                match mask:
                    case 0:
                        self.next_page += 1
                        raise ValueError("empty mask")
                    case _:
                        self.next_page += page
        """, select=["M"])
    assert rules == ["M001"]


def test_m001_good_terminating_match_cases(tmp_path):
    """A ``match`` arm that returns never reaches a sibling arm's raise,
    and an exhaustive ``match`` whose arms all return leaves no path to
    a later raise."""
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def program(self, mode):
                match mode:
                    case "fast":
                        self.next_page += 1
                        return True
                    case "bad":
                        raise ValueError("bad mode")
                self.next_page += 2
                match mode:
                    case "slow":
                        return False
                    case _:
                        return True
                raise RuntimeError("unreachable")
        """, select=["M"])
    assert rules == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11+")
def test_m001_flags_torn_write_inside_except_star(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def program(self, page):
                try:
                    self.load(page)
                except* KeyError:
                    self.next_page += 1
                    raise ValueError("bad page")
        """, select=["M"])
    assert rules == ["M001"]


# --------------------------------------------------------------------------
# M002 — Block mirror / RegionState column lock-step


def test_m002_flags_mirror_without_column(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def invalidate(self, page):
                self.valid_mask &= ~(1 << page)
                self.n_valid -= 1
        """, select=["M"])
    assert rules.count("M002") == 2  # both unpaired mirrors


def test_m002_flags_column_without_mirror(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def invalidate(self, slot):
                region = self.region
                region.valid[slot] = False
        """, select=["M"])
    assert "M002" in rules


def test_m002_good_paired_writes(tmp_path):
    """The kernel's real shape: mirror and column updated in the same
    method, including writes through hoisted column aliases."""
    rules, _ = lint_snippet(tmp_path, "nand/block.py", """
        class Block:
            def invalidate(self, slot, page):
                valid_f = self.region.valid
                valid_f[slot] = False
                self.valid_mask &= ~(1 << page)
                self.n_valid -= 1
        """, select=["M"])
    assert rules == []


def test_m002_good_unmirrored_column(tmp_path):
    """``slot_time`` has no scalar mirror by design — array-only columns
    carry no pairing obligation."""
    rules, _ = lint_snippet(tmp_path, "nand/flash.py", """
        class Flash:
            def touch(self, region, j, now):
                time_f = region.slot_time
                time_f[j] = now
        """, select=["M"])
    assert rules == []


# --------------------------------------------------------------------------
# N001 — dtype discipline in byte-identity-gated modules


def test_n001_flags_dtypeless_construction(tmp_path):
    rules, _ = lint_snippet(tmp_path, "error/rber.py", """
        import numpy as np

        def curve(values):
            return np.array([v * 2.0 for v in values])
        """, select=["N"])
    assert rules == ["N001"]


def test_n001_flags_narrow_float(tmp_path):
    rules, _ = lint_snippet(tmp_path, "error/ecc.py", """
        import numpy as np

        def decode(rbers):
            return np.asarray(rbers, dtype=np.float32)
        """, select=["N"])
    assert rules == ["N001"]


def test_n001_flags_narrow_float_string(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/state.py", """
        import numpy as np

        def alloc(n):
            return np.zeros(n, dtype="float32")
        """, select=["N"])
    assert rules == ["N001"]


def test_n001_good_explicit_dtypes(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/state.py", """
        import numpy as np

        def alloc(n):
            a = np.zeros(n, dtype=np.float64)
            b = np.full(n, -1, dtype=np.int64)
            c = np.asarray([1, 2], np.intp)
            d = np.zeros(n, dtype=bool)
            return a, b, c, d
        """, select=["N"])
    assert rules == []


def test_n001_only_gated_modules(tmp_path):
    """Trace synthesis and friends are free to use idiomatic numpy."""
    rules, _ = lint_snippet(tmp_path, "traces/synth.py", """
        import numpy as np

        def weights(values):
            return np.array(values)
        """, select=["N"])
    assert rules == []


# --------------------------------------------------------------------------
# N002 — order-dependent reductions in byte-identity-gated modules


def test_n002_flags_fancy_gather_sum(tmp_path):
    rules, _ = lint_snippet(tmp_path, "nand/flash.py", """
        import numpy as np

        def price(col, idx):
            return col[idx].sum()
        """, select=["N"])
    assert rules == ["N002"]


def test_n002_flags_np_sum_of_gather(tmp_path):
    rules, _ = lint_snippet(tmp_path, "error/rber.py", """
        import numpy as np

        def price(col, idx):
            return np.sum(col[idx])
        """, select=["N"])
    assert rules == ["N002"]


def test_n002_flags_builtin_sum_over_array(tmp_path):
    rules, _ = lint_snippet(tmp_path, "error/ecc.py", """
        def fold(arr):
            return sum(arr)
        """, select=["N"])
    assert rules == ["N002"]


def test_n002_good_generator_and_mask_sums(tmp_path):
    """Generator folds and boolean-mask gathers (ascending position
    order) stay deterministic and stay allowed."""
    rules, _ = lint_snippet(tmp_path, "nand/flash.py", """
        import numpy as np

        def counters(blocks, col):
            a = sum(b.n_valid for b in blocks)
            b = col[col > 0].sum()
            c = np.maximum.reduceat(col, [0, 4])
            return a, b, c
        """, select=["N"])
    assert rules == []


def test_n002_flags_gather_sum_in_hotcold(tmp_path):
    """Equation 2 decides ISR victims, so ``ftl/hotcold.py`` is gated:
    a pairwise ``np.sum`` over an integer-index gather trips N002."""
    rules, _ = lint_snippet(tmp_path, "ftl/hotcold.py", """
        import numpy as np

        def age_sum(slot_time, valid, now):
            idx = np.flatnonzero(valid)
            return now * len(idx) - np.sum(slot_time[idx])
        """, select=["N"])
    assert rules == ["N002"]


def test_n002_only_gated_modules(tmp_path):
    rules, _ = lint_snippet(tmp_path, "metrics/latency.py", """
        def mean(latencies):
            return sum(latencies) / len(latencies)
        """, select=["N"])
    assert rules == []


# --------------------------------------------------------------------------
# M/N --select plumbing


def test_select_prefix_m_expands(tmp_path):
    _, result = lint_snippet(tmp_path, "ftl/x.py", "x = 1\n", select=["M"])
    assert result.rules_run == ["M001", "M002"]


def test_select_prefix_n_expands(tmp_path):
    _, result = lint_snippet(tmp_path, "ftl/x.py", "x = 1\n", select=["N"])
    assert result.rules_run == ["N001", "N002"]
