"""The mutant catalogue: deliberate bugs that named tests must catch.

Each entry names a source file under ``src``, a "before" snippet that occurs
in it exactly once, the "after" snippet that replaces it, and the pytest
node ids (relative to the repository root) that must each fail under the
mutant. Run from anywhere:

    python tests/mutants.py [NAME ...]

For each entry (or only the named ones) the driver copies ``src`` to a
temporary directory, applies the mutant there and runs each node in its own
pytest process against the copy, one process at a time, each within
``TIMEOUT_S`` seconds; a node that runs out of time counts as failing. A
mutant survives when one of its nodes passes. The driver prints one line per
entry, its verdict and wall time, and exits 1 if any mutant survives or any
entry is stale (its snippet not found once, or a node that no longer
collects). ``tests/test_mutants.py`` checks the snippets in tier 1; this run
takes minutes, so it stays outside.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Seconds one node may run under a mutant; some mutants make a sampler
# reject every draw, so a node can hang instead of failing.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/usnc
    before: str
    after: str
    nodes: tuple


_GAUSS_JORDAN = (
    "tests/test_protocol.py::TestKernels::"
    "test_gauss_jordan_matches_column_reference",
    "tests/test_protocol.py::TestStreamPins::"
    "test_batch_fields_pinned[random[300,130]-1000]")
_LAST_BLOCK = ("tests/test_protocol.py::TestBatchEngine::"
               "test_last_block_counts_only_its_first_trials",)
_LAST_SLICE = "        rejects += int((~accepted[:trials - start]).sum())\n"
_GRID = "    return [i * step + start for i in range(num - 1)] + [stop]\n"
_GRID_PIN = ("tests/test_bounds.py::TestRateSurface::"
             "test_grid_equals_linspace_bit_for_bit",)
_BASIS = ("    return on_pivots(ncols), [1 << f | on_pivots(f) for f in "
          "range(ncols)\n")
_BRUTE_FORCE = ("tests/test_gf2.py::TestIntRows::"
                "test_solution_space_equals_brute_force")
_FAILED_CHECK = tuple(
    "tests/test_cli_contract.py::test_failed_check_exits_1[%s]" % command
    for command in ("commit-complete", "attack-binding", "attack-hiding",
                    "oracle-intersection", "oracle-lhl", "oracle-clipped",
                    "nqs-povm-verify"))

_KEY = "    key = ((a.label << (n - k) | a.coset) << n | a.x0) << n | a.x1\n"
_GROUPED = ("tests/test_adversary.py::TestGroupedBindingMatchesReference::"
            "test_hand_built_tables_with_invalid_reveals",
            "tests/test_adversary.py::TestGroupedBindingMatchesReference::"
            "test_random_tables_with_invalid_openings[random12x6-m2]")
_OPENINGS = tuple(
    "tests/test_adversary.py::TestPackedOpeningTest::"
    "test_one_check_faults_match_scalar_reference[%s]" % case
    for case in ("k=6,n=7-3", "k=9-3"))
_LHL_BLOCKS = tuple(
    "tests/test_oracle.py::TestLhlCheck::"
    "test_seed_blocks_neither_drop_nor_repeat_seeds[%s-1]" % case
    for case in ("hamming74-m3", "even7-m3-sampled"))
_CLIPPED_ROWS = ("tests/test_oracle.py::TestClippedRankGather::"
                 "test_row_blocks_neither_drop_nor_repeat_rows[%d-%d]")
_CLIPPED_BLOCKS = (_CLIPPED_ROWS % (9, 3), _CLIPPED_ROWS % (13, 3))
_DISTANCES = ("tests/test_channel.py::TestHammingDistances::"
              "test_equals_uint32_xor_reference[9]",
              "tests/test_channel.py::TestHammingDistances::"
              "test_equals_uint32_xor_reference[20]")
_DISTANCE_SUM = ("    return (d_high[..., None] + d_low[..., None, :])"
                 ".reshape(\n")

# the paper's formulas: each names the pinning test of its own bound
_B = "tests/test_bounds.py::"
_COMPLETENESS = "    return _exp2(3.0 - n * eps * eps)\n"
_COMPLETENESS_PIN = (_B + "TestCompletenessBound::test_substitutions",)
_HIDING = ("    return _exp2(1.0 + 0.5 * (n + log_m - log_c - l_b)) "
           "+ 8.0 * eps_b\n")
_HIDING_PIN = (_B + "TestHidingBound::test_substitutions",)
_COUNT_LOG2 = "    return (2.0 * math.log2(math.sqrt(2.0) * eps * n + 1.0)\n"
_SIGMA_ZERO = (_B + "TestBindingBound::test_sigma_zero_reduction",)
_BINDING = "    return _exp2(log2_count - l_a) + eps_a\n"
_BRACKET = ("    return (1.0 - 2.0 * sigma) * binary_entropy(arg) "
            "+ 2.0 * sigma\n")
_BRACKET_ARG = "    arg = (p - sigma + eps) / (1.0 - 2.0 * sigma)\n"
_TRADEOFF_PIN = (_B + "TestRateTradeoff::test_anchor_value",)
_IID_MU = "    mu = _exp2(3.0 - n ** (1.0 / 3.0))\n"
_IID_FLOOR = "    floor = n * (binary_entropy(p) - c * n ** (-1.0 / 3.0))\n"
_IID_PIN = (_B + "TestIidEntropyFloor::test_substitution",)
_LOG_C = ("_clip01(2.0 * sigma + 2.0 * eps_prime))\n"
          "             - eps_prime) * n\n")
_LOG_M = ("_clip01(2.0 * sigma + 3.0 * eps_prime))\n"
          "             - eps_prime) * n\n")
_SIZING_PIN = (_B + "TestAsymptoticParams::test_substitution",)
_AZUMA = "    return math.exp(-lam * lam * n / (32.0 * log_term * log_term))\n"
_AZUMA_PIN = ("tests/test_nqs.py::TestAzuma::test_bound_formula",)
_NQS_PIN = ("tests/test_nqs.py::TestChannelParams::"
            "test_substitution_with_smoothing_below_one",)
_EPS_B = ("    eps_b = 2.0 * _azuma_eps(lam_b / 4.0, n, "
          "math.log2(4.0 / lam_b) + 2.0)\n")

CATALOGUE = [
    # the batched elimination's pivot, clears and right-hand sides
    Mutant("gauss-jordan-highest-bit", "protocol.py",
           "        low &= np.uint64(0) - low  # lowest set bit; 0 for an "
           "empty row\n",
           "        for s in (1, 2, 4, 8, 16, 32):\n"
           "            low |= low >> np.uint64(s)\n"
           "        low ^= low >> np.uint64(1)\n",
           _GAUSS_JORDAN),
    Mutant("gauss-jordan-clears-own-row", "protocol.py",
           "        hit[j] = False\n", "", _GAUSS_JORDAN),
    Mutant("gauss-jordan-no-rhs-update", "protocol.py",
           "        rhs ^= hit & rhs[j]\n", "", _GAUSS_JORDAN),
    # the completeness count's last, partial block
    Mutant("last-block-unsliced", "protocol.py", _LAST_SLICE,
           _LAST_SLICE.replace("[:trials - start]", ""), _LAST_BLOCK),
    Mutant("last-block-one-short", "protocol.py", _LAST_SLICE,
           _LAST_SLICE.replace("start]", "start - 1]"), _LAST_BLOCK),
    Mutant("last-block-one-over", "protocol.py", _LAST_SLICE,
           _LAST_SLICE.replace("start]", "start + 1]"), _LAST_BLOCK),
    Mutant("from-int-big-endian", "gf2.py",
           '        raw = value.to_bytes(8 * ((n + 63) // 64), "little")\n',
           '        raw = value.to_bytes(8 * ((n + 63) // 64), "big")\n',
           ("tests/test_gf2.py::TestBitString::"
            "test_int_roundtrip_beyond_64_bits",
            "tests/test_gf2.py::TestBitString::"
            "test_int_codec_matches_binary_string")),
    # one resolution order for every CLI option
    Mutant("seed-skips-config", "cli.py",
           "or name in _FILES:\n", 'or name in _FILES + ("--seed",):\n',
           ("tests/test_cli_contract.py::"
            "test_option_moved_into_a_file_keeps_the_output"
            "[0-commit-run--seed]",
            "tests/test_cli_contract.py::"
            "test_option_moved_into_a_file_keeps_the_output"
            "[15-attack-binding--seed]")),
    Mutant("config-over-descriptor", "cli.py",
           '_FILES = ("--strategy", "--config")\n',
           '_FILES = ("--config", "--strategy")\n',
           ("tests/test_cli.py::TestAttack::"
            "test_descriptor_wins_over_config",)),
    # one distance rule past k = 24
    Mutant("random-code-past-k24", "gf2.py",
           "    if k > 24:\n"
           '        raise ValueError("exact distance enumeration limited to '
           'k <= 24 "\n'
           '                         "(got k=%d)" % k)\n', "",
           ("tests/test_gf2.py::TestRandomLinearCode::"
            "test_refused_beyond_limit",
            "tests/test_cli.py::TestCommit::"
            "test_complete_beyond_k24_is_usage_error")),
    # transcript errors name their path
    Mutant("transcript-error-without-path", "protocol.py",
           '    where = "transcript field %s" % path if path else '
           '"transcript"\n',
           '    where = "transcript"\n',
           ("tests/test_protocol.py::TestTranscriptCodec::"
            "test_wrong_shape_names_its_path[z-int]",
            "tests/test_cli_contract.py::"
            "test_replay_names_the_path_of_a_wrong_shape[z-int]")),
    # one renderer for every command's output and exit code
    Mutant("report-ignores-verdict", "cli.py",
           "    return 0 if ok else CHECK_FAILED\n", "    return 0\n",
           _FAILED_CHECK),
    Mutant("report-fail-as-pass", "cli.py",
           '    print("%s: %s" % (name, "PASS" if ok else "FAIL"))\n',
           '    print("%s: PASS" % name)\n', _FAILED_CHECK),
    Mutant("report-numbers-as-str", "cli.py",
           "            value = _fmt(value)\n",
           "            value = str(value)\n",
           ("tests/test_cli_golden.py::"
            "test_readme_examples_print_golden_bytes",)),
    # the doubling kernel and the numpy-free linspace
    Mutant("xor-span-rows-reversed", "gf2.py",
           "        np.bitwise_xor(span[..., : 1 << i, :], rows[..., i, None, "
           ":],\n",
           "        np.bitwise_xor(span[..., : 1 << i, :], rows[..., r - 1 - i, "
           "None, :],\n",
           ("tests/test_gf2.py::TestXorSpan::"
            "test_equals_subset_xors[lead0-int64]",
            "tests/test_gf2.py::TestXorSpan::"
            "test_equals_subset_xors[lead2-uint64]")),
    Mutant("grid-without-stop", "bounds.py", _GRID,
           "    return [i * step + start for i in range(num)]\n", _GRID_PIN),
    Mutant("grid-by-division", "bounds.py", _GRID,
           "    return [start + (stop - start) * i / (num - 1) "
           "for i in range(num - 1)] + [stop]\n", _GRID_PIN),
    # the scalar solver's kernel basis, one int per free column
    Mutant("kernel-basis-reversed", "gf2.py", _BASIS,
           _BASIS.replace("range(ncols)", "range(ncols)[::-1]"),
           (_BRUTE_FORCE,
            "tests/test_gf2.py::TestIntRows::test_wide_solution_spaces[70]")),
    Mutant("kernel-basis-pivot-bit-dropped", "gf2.py", _BASIS,
           _BASIS.replace("on_pivots(f) for",
                          "on_pivots(f) & (on_pivots(f) - 1) for"),
           (_BRUTE_FORCE,
            "tests/test_gf2.py::test_kernel_basis_spans_kernel")),
    # the BSC flip threshold and the encoder's byte tables
    Mutant("flip-threshold-floor", "protocol.py",
           "    return math.ceil(p * 2.0 ** 53)\n",
           "    return math.floor(p * 2.0 ** 53)\n",
           ("tests/test_protocol.py::TestKernels::"
            "test_flip_threshold_is_random_below_p[1e-09]",
            "tests/test_protocol.py::TestKernels::"
            "test_flip_threshold_is_random_below_p[0.1]")),
    Mutant("check-words-last-table-dropped", "gf2.py",
           "        for b in range(1, table.shape[0]):\n",
           "        for b in range(1, table.shape[0] - 1):\n",
           ("tests/test_gf2.py::TestCheckWordsBatch::"
            "test_matches_per_bit_reference[9]",
            "tests/test_gf2.py::TestCheckWordsBatch::"
            "test_matches_per_bit_reference[130]")),
    # the digest's bit order and exact binding's packed group key
    Mutant("digest-bits-reversed", "hashing.py",
           "        @ (1 << np.arange(seeds.shape[-2]))\n",
           "        @ (1 << np.arange(seeds.shape[-2]))[::-1]\n",
           ("tests/test_hashing.py::TestHash::"
            "test_digest_table_matches_hash_codeword[2-hamming74]",)
           + _OPENINGS),
    Mutant("binding-key-x1-primary", "adversary.py", _KEY,
           "    key = ((a.x1 << (n - k) | a.coset) << n | a.x0) << n "
           "| a.label\n",
           _GROUPED + ("tests/test_adversary.py::"
                       "TestGroupedBindingMatchesReference::"
                       "test_each_label_built_once_per_call",)),
    Mutant("binding-key-x1-before-x0", "adversary.py", _KEY,
           _KEY.replace("a.x0) << n | a.x1", "a.x1) << n | a.x0"), _GROUPED),
    # the packed opening test: membership and every digest bit
    Mutant("openings-membership-dropped", "protocol.py",
           "    return member & (digest == m ^ mbar).all(axis=1)\n",
           "    return (digest == m ^ mbar).all(axis=1)\n",
           _OPENINGS + ("tests/test_protocol.py::TestBatchEngine::"
                        "test_replay_verdicts_equal_scalar[even:14]",)),
    Mutant("openings-first-digest-bit-only", "protocol.py",
           "    for j in range(hm):\n", "    for j in range(1):\n",
           _OPENINGS + ("tests/test_protocol.py::TestBatchEngine::"
                        "test_replay_verdicts_equal_scalar[random[200,70]]",)),
    # the block edges of the leftover-hash and clipped oracles, the
    # clipped slab's high offsets and its empty-window refusal
    Mutant("lhl-block-drops-last-seed", "oracle.py",
           "    for start in range(0, len(seeds), block):\n",
           "    for start in range(0, len(seeds) - 1, block):\n", _LHL_BLOCKS),
    Mutant("lhl-block-shifted-one-seed", "oracle.py",
           "        stack = seeds[start:start + block]\n",
           "        stack = seeds[start + 1:start + block + 1]\n",
           _LHL_BLOCKS),
    Mutant("clipped-block-drops-last-row", "oracle.py",
           "        for zl in range(0, 1 << low, rows):\n",
           "        for zl in range(0, (1 << low) - 1, rows):\n",
           _CLIPPED_BLOCKS + (_CLIPPED_ROWS % (9, 1),)),
    Mutant("clipped-block-runs-past-its-high-part", "oracle.py",
           "    for zh, high in enumerate(d_high):\n"
           "        for zl in range(0, 1 << low, rows):\n",
           "    for start in range(0, 1 << n, rows):\n"
           "        for zh, zl in [divmod(start, 1 << low)]:\n"
           "            high = d_high[zh]\n",
           _CLIPPED_BLOCKS + (_CLIPPED_ROWS % (9, 100),)),
    Mutant("clipped-slab-skips-last-high-offset", "oracle.py",
           "    return np.logical_or.reduce(hits, axis=0).any(axis=1)\n",
           "    return np.logical_or.reduce(hits[:-1], axis=0).any(axis=1)\n",
           ("tests/test_oracle.py::TestClippedRankGather::"
            "test_presence_equals_gather_on_split_tables[rows0]",
            "tests/test_oracle.py::TestClippedRankGather::"
            "test_bit_identical_to_float_gather[9-0.1-0.1]")),
    Mutant("clipped-missing-top-distance-unrefused", "oracle.py",
           "            if not found.all():\n", "            if False:\n",
           ("tests/test_oracle.py::TestClippedRankGather::"
            "test_output_without_top_distance_refused",)),
    Mutant("clipped-empty-window-unrefused", "oracle.py",
           "    if lo > hi:\n", "    if False:\n",
           ("tests/test_oracle.py::TestClippedConstruction::"
            "test_empty_window_refused_before_enumeration[9-0.2-0.0-2-1]",
            "tests/test_cli.py::TestOracleCommands::"
            "test_clipped_empty_window_is_usage_error")),
    # the columnar atom table: group heads, the Monte Carlo gather and the
    # table's shape, cast and probability refusals
    Mutant("binding-heads-at-first", "adversary.py",
           "    heads = np.flatnonzero(valid)[first]  # each group's first "
           "atom\n",
           "    heads = first  # each group's first atom\n", _GROUPED),
    Mutant("binding-mc-coset-not-gathered", "adversary.py",
           "            coset=_int_words(a.coset[i], n - k), "
           "z=_pack_split(z, k),\n",
           "            coset=_int_words(a.coset[:len(i)], n - k), "
           "z=_pack_split(z, k),\n",
           ("tests/test_adversary.py::TestGroupedBindingMatchesReference::"
            "test_hand_built_tables_with_invalid_reveals",
            "tests/test_adversary.py::TestGroupedBindingMatchesReference::"
            "test_honest_strategy_with_a_second_opening")),
    Mutant("atom-table-lengths-unchecked", "adversary.py",
           "            if len(col) != len(self.prob):\n",
           "            if False:\n",
           ("tests/test_adversary.py::TestAtomTable::"
            "test_columns_of_unequal_length_refused[m1]",)),
    Mutant("atom-table-ndim-unchecked", "adversary.py",
           "            if col.ndim != 1:\n", "            if False:\n",
           ("tests/test_adversary.py::TestAtomTable::"
            "test_columns_that_are_not_1d_refused[label]",)),
    Mutant("atom-table-cast-unchecked", "adversary.py",
           "        if np.array_equal(col, values):\n",
           "        if True:\n",
           ("tests/test_adversary.py::TestAtomTable::"
            "test_values_the_cast_changes_refused[fraction]",)),
    Mutant("atom-table-overflow-uncaught", "adversary.py",
           "    except (OverflowError, TypeError, ValueError):\n",
           "    except (TypeError, ValueError):\n",
           ("tests/test_adversary.py::TestAtomTable::"
            "test_values_the_cast_changes_refused[2^64]",)),
    Mutant("atom-table-probability-unchecked", "adversary.py",
           "            if field.name == \"prob\" and not (\n",
           "            if False and not (\n",
           ("tests/test_adversary.py::TestAtomTable::"
            "test_negative_or_non_finite_probability_refused[nan]",
            "tests/test_adversary.py::TestAtomTable::"
            "test_negated_midpoint_table_refused")),
    # the strategy table's label check and hiding's joint reads
    Mutant("table-label-unchecked", "adversary.py",
           "    limits = dict(seed=len(strategy.seeds), "
           "label=len(strategy.channel.labels),\n",
           "    limits = dict(seed=len(strategy.seeds), label=1 << 62,\n",
           ("tests/test_adversary.py::TestGroupedBindingMatchesReference::"
            "test_table_outside_configuration_refused[label-1]",)),
    Mutant("hiding-joint-at-reversed-masks", "adversary.py",
           "    return gtd(np.take(table, m0.to_int() ^ masks, axis=1)"
           ".ravel(),\n",
           "    return gtd(np.take(table, (m0.to_int() ^ masks)[::-1], "
           "axis=1).ravel(),\n",
           ("tests/test_adversary.py::TestHidingAdvantage::"
            "test_every_message_pair_gives_one_advantage[0.25-hamming74]",
            "tests/test_cli.py::TestAttack::"
            "test_descriptor_wins_over_config")),
    # the byte-split distance kernel
    Mutant("distances-high-part-dropped", "channel.py", _DISTANCE_SUM,
           _DISTANCE_SUM.replace("(d_high", "(0 * d_high"), _DISTANCES),
    Mutant("distances-broadcast-swapped", "channel.py", _DISTANCE_SUM,
           "    return (d_high[..., None, :] + d_low[..., None])"
           ".reshape(\n", _DISTANCES),
    # the folded membership test, code loader and rate clamp
    Mutant("membership-exclusive-at-w-lo", "channel.py",
           "    return w_lo <= d <= w_hi\n", "    return w_lo < d <= w_hi\n",
           ("tests/test_channel.py::TestTypicalMembership::"
            "test_inclusive_boundaries",
            "tests/test_protocol.py::TestBatchEngine::"
            "test_replay_verdicts_equal_scalar[hamming74]")),
    Mutant("load-code-systematic-check-dropped", "gf2.py",
           "    if not np.array_equal(gen[:, :k], np.eye(k, dtype=np.uint8)):"
           "\n"
           '        raise ValueError("generator is not in systematic form '
           '[I_k | P]")\n', "",
           ("tests/test_gf2.py::TestLinearCode::test_systematic_required",)),
    Mutant("rate-surface-unclamped", "bounds.py",
           "    return [RatePoint(xa, xb, max(0.0, r)) for xa in xas\n",
           "    return [RatePoint(xa, xb, r) for xa in xas\n",
           ("tests/test_bounds.py::TestRateSurface::"
            "test_every_point_is_achievable_rate[0.1]",
            "tests/test_cli_golden.py::"
            "test_readme_examples_print_golden_bytes")),
    # the refusals of a file key that names no option and of an [n, n] code
    Mutant("file-key-naming-no-option-read", "cli.py",
           "        if unknown:\n", "        if False:\n",
           ("tests/test_cli_contract.py::"
            "test_descriptor_key_naming_no_option_exits_2[sprad]",
            "tests/test_cli_contract.py::"
            "test_config_key_naming_no_option_exits_2[hashm-first]")),
    Mutant("square-code-committed", "protocol.py",
           "        if self.code.k == self.code.n:\n", "        if False:\n",
           ("tests/test_protocol.py::TestConfigValidation::"
            "test_square_code_refused[4]",
            "tests/test_cli_contract.py::"
            "test_square_code_refused_by_every_protocol_command"
            "[commit-replay]")),
    # completeness 8 * 2^(-n eps^2)
    Mutant("completeness-8-to-4", "bounds.py", _COMPLETENESS,
           _COMPLETENESS.replace("3.0", "2.0"), _COMPLETENESS_PIN),
    Mutant("completeness-eps-unsquared", "bounds.py", _COMPLETENESS,
           _COMPLETENESS.replace(" * eps * eps", " * eps"),
           _COMPLETENESS_PIN),
    Mutant("completeness-n-dropped", "bounds.py", _COMPLETENESS,
           _COMPLETENESS.replace("n * eps", "eps"), _COMPLETENESS_PIN),
    # hiding 2 * 2^((n + log|M| - log|C| - l_b)/2) + 8 eps_b
    Mutant("hiding-prefactor-2-to-1", "bounds.py", _HIDING,
           _HIDING.replace("1.0 + 0.5", "0.0 + 0.5"), _HIDING_PIN),
    Mutant("hiding-exponent-unhalved", "bounds.py", _HIDING,
           _HIDING.replace("0.5 * (", "1.0 * ("), _HIDING_PIN),
    Mutant("hiding-n-dropped", "bounds.py", _HIDING,
           _HIDING.replace("(n + log_m", "(log_m"), _HIDING_PIN),
    Mutant("hiding-log-m-dropped", "bounds.py", _HIDING,
           _HIDING.replace("n + log_m - ", "n - "), _HIDING_PIN),
    Mutant("hiding-log-c-dropped", "bounds.py", _HIDING,
           _HIDING.replace(" - log_c", ""), _HIDING_PIN),
    Mutant("hiding-l-b-dropped", "bounds.py", _HIDING,
           _HIDING.replace(" - l_b", ""), _HIDING_PIN),
    Mutant("hiding-smoothing-8-to-4", "bounds.py", _HIDING,
           _HIDING.replace("8.0 * eps_b", "4.0 * eps_b"),
           (_B + "TestHidingBound::test_substitution_with_smoothing",)),
    # binding (sqrt(2) eps n + 1)^2 2^(n [(1-2s) h((p-s+eps)/(1-2s)) + 2s]
    # - l_a) + eps_a, and eps_a alone beyond sigma = p + 2 eps
    Mutant("binding-sqrt2-to-2", "bounds.py", _COUNT_LOG2,
           _COUNT_LOG2.replace("math.sqrt(2.0) * eps", "2.0 * eps"),
           _SIGMA_ZERO),
    Mutant("binding-count-unsquared", "bounds.py", _COUNT_LOG2,
           _COUNT_LOG2.replace("(2.0 * math.log2", "(1.0 * math.log2"),
           _SIGMA_ZERO),
    Mutant("binding-plus-one-dropped", "bounds.py", _COUNT_LOG2,
           _COUNT_LOG2.replace(" + 1.0)", ")"), _SIGMA_ZERO),
    Mutant("binding-exponent-n-dropped", "bounds.py",
           "            + n * _interval_bracket(p, eps, sigma))\n",
           "            + _interval_bracket(p, eps, sigma))\n", _SIGMA_ZERO),
    Mutant("binding-window-eps-dropped", "bounds.py", _BRACKET_ARG,
           _BRACKET_ARG.replace(" + eps)", ")"), _SIGMA_ZERO),
    Mutant("binding-l-a-dropped", "bounds.py", _BINDING,
           _BINDING.replace(" - l_a", ""), _SIGMA_ZERO),
    Mutant("binding-eps-a-dropped", "bounds.py", _BINDING,
           _BINDING.replace(" + eps_a", ""),
           (_B + "TestBindingBound::"
            "test_consistency_with_intersection_bound",)),
    Mutant("binding-empty-beyond-p-plus-eps", "bounds.py",
           "    if sigma > p + 2 * eps:\n        return -math.inf\n",
           "    if sigma > p + eps:\n        return -math.inf\n",
           (_B + "TestBindingBound::"
            "test_empty_exactly_beyond_p_plus_two_eps",)),
    # rate_tradeoff (1-2s) h((p-s)/(1-2s)) + 2s
    Mutant("tradeoff-2s-term-dropped", "bounds.py", _BRACKET,
           _BRACKET.replace(" + 2.0 * sigma\n", "\n"),
           (_B + "TestRateTradeoff::test_endpoints",)),
    Mutant("tradeoff-weight-dropped", "bounds.py", _BRACKET,
           _BRACKET.replace("(1.0 - 2.0 * sigma) * ", ""), _TRADEOFF_PIN),
    Mutant("tradeoff-argument-unscaled", "bounds.py", _BRACKET_ARG,
           _BRACKET_ARG.replace(" / (1.0 - 2.0 * sigma)", ""),
           _TRADEOFF_PIN),
    Mutant("tradeoff-argument-sign", "bounds.py", _BRACKET_ARG,
           _BRACKET_ARG.replace("p - sigma", "p + sigma"), _TRADEOFF_PIN),
    Mutant("tradeoff-with-a-window", "bounds.py",
           "    return _interval_bracket(p, 0.0, sigma)\n",
           "    return _interval_bracket(p, 0.01, sigma)\n",
           (_B + "TestRateTradeoff::test_endpoints",)),
    # iid_entropy_floor mu_n = 8 * 2^(-n^(1/3)),
    # l_np = n (h(p) - log2((1-p)/p) n^(-1/3))
    Mutant("iid-floor-smoothing-8-to-4", "bounds.py", _IID_MU,
           _IID_MU.replace("3.0 - ", "2.0 - "), _IID_PIN),
    Mutant("iid-floor-smoothing-square-root", "bounds.py", _IID_MU,
           _IID_MU.replace("(1.0 / 3.0)", "(1.0 / 2.0)"), _IID_PIN),
    Mutant("iid-floor-constant-without-1-p", "bounds.py",
           "    c = math.log2((1.0 - p) / p)\n",
           "    c = math.log2(1.0 / p)\n", _IID_PIN),
    Mutant("iid-floor-penalty-square-root", "bounds.py", _IID_FLOOR,
           _IID_FLOOR.replace("(-1.0 / 3.0)", "(-1.0 / 2.0)"), _IID_PIN),
    Mutant("iid-floor-penalty-dropped", "bounds.py", _IID_FLOOR,
           "    floor = n * binary_entropy(p)\n", _IID_PIN),
    # asymptotic sizing eps_n = n^(-1/3), distance 2 (s* + e') n,
    # log|C| = (1 - h(2s* + 2e') - e') n, log|M| = (xi_b - h(2s* + 3e') - e') n
    Mutant("sizing-window-square-root", "bounds.py",
           "    eps_n = n ** (-1.0 / 3.0)\n",
           "    eps_n = n ** (-1.0 / 2.0)\n", _SIZING_PIN),
    Mutant("sizing-distance-halved", "bounds.py",
           "    distance = 2.0 * (sigma + eps_prime) * n\n",
           "    distance = (sigma + eps_prime) * n\n", _SIZING_PIN),
    Mutant("sizing-code-2e-to-3e", "bounds.py", _LOG_C,
           _LOG_C.replace("2.0 * eps_prime", "3.0 * eps_prime"),
           _SIZING_PIN),
    Mutant("sizing-code-slack-dropped", "bounds.py", _LOG_C,
           _LOG_C.replace("- eps_prime) * n", "- 0.0) * n"), _SIZING_PIN),
    Mutant("sizing-message-3e-to-2e", "bounds.py", _LOG_M,
           _LOG_M.replace("3.0 * eps_prime", "2.0 * eps_prime"),
           _SIZING_PIN),
    Mutant("sizing-message-slack-dropped", "bounds.py", _LOG_M,
           _LOG_M.replace("- eps_prime) * n", "- 0.0) * n"), _SIZING_PIN),
    # nqs: Azuma exp(-lam^2 n / (32 log^2)), l_a = (h - 2 lam_a) n,
    # eps_b = 2 Azuma(lam_b/4, log2(4/lam_b) + 2), l_b at (1/2 - lam_b) n
    Mutant("azuma-32-to-16", "nqs.py", _AZUMA,
           _AZUMA.replace("32.0", "16.0"), _AZUMA_PIN + _NQS_PIN),
    Mutant("azuma-log-unsquared", "nqs.py", _AZUMA,
           _AZUMA.replace(" * log_term * log_term", " * log_term"),
           _AZUMA_PIN),
    Mutant("azuma-lambda-unsquared", "nqs.py", _AZUMA,
           _AZUMA.replace("-lam * lam * n", "-lam * n"), _AZUMA_PIN),
    Mutant("azuma-penalty-2-to-1", "nqs.py",
           "    bound = (h_floor - 2.0 * lam) * n\n",
           "    bound = (h_floor - 1.0 * lam) * n\n", _AZUMA_PIN),
    Mutant("nqs-sender-alphabet-2-to-4", "nqs.py",
           "azuma_min_entropy(h_round, n, params.lambda_a, 2)",
           "azuma_min_entropy(h_round, n, params.lambda_a, 4)", _NQS_PIN),
    Mutant("nqs-eps-b-factor-2-to-1", "nqs.py", _EPS_B,
           _EPS_B.replace("eps_b = 2.0 *", "eps_b = 1.0 *"), _NQS_PIN),
    Mutant("nqs-eps-b-lambda-quarter-to-half", "nqs.py", _EPS_B,
           _EPS_B.replace("(lam_b / 4.0,", "(lam_b / 2.0,"), _NQS_PIN),
    Mutant("nqs-eps-b-log-plus-2-to-1", "nqs.py", _EPS_B,
           _EPS_B.replace("lam_b) + 2.0)", "lam_b) + 1.0)"), _NQS_PIN),
    Mutant("nqs-receiver-rate-half-to-1", "nqs.py",
           "(0.5 - lam_b) * n", "(1.0 - lam_b) * n", _NQS_PIN),
    # the folded intersection verdict, C2 over every label, the NaN-mass
    # refusal and encode
    Mutant("intersection-over-inclusive", "oracle.py",
           "    over = [row for row in rows if row.exact > row.bound]\n",
           "    over = [row for row in rows if row.exact >= row.bound]\n",
           ("tests/test_oracle.py::TestVerifyIntersectionBound::"
            "test_sweep_passes[10-0.125]",)),
    Mutant("intersection-witness-first", "oracle.py",
           "witness=over[-1] if over else None)",
           "witness=over[0] if over else None)",
           ("tests/test_oracle.py::TestVerifyIntersectionBound::"
            "test_witness_is_the_last_row_over_a_lowered_bound",)),
    Mutant("intersection-count-times-10", "oracle.py",
           "exact=int(counts[w]),", "exact=10 * int(counts[w]),",
           ("tests/test_acceptance.py::"
            "test_criterion_01_intersection_bound_sweep",)),
    Mutant("check-c2-one-label-always", "channel.py",
           "                       for i, label in enumerate(ch.labels))\n",
           "                       for i, label in enumerate(ch.labels[:1]))\n",
           ("tests/test_channel.py::TestCheckC2::"
            "test_worst_label_found_past_the_first",)),
    Mutant("nan-mass-unrefused", "entropy.py",
           "    if not low >= -_MASS_TOL:\n", "    if low < -_MASS_TOL:\n",
           ("tests/test_entropy.py::TestValidation::"
            "test_nan_mass_refused[distribution]",
            "tests/test_channel.py::TestCheckC2::test_nan_spread_refused")),
    Mutant("encode-check-bits-dropped", "gf2.py",
           "        word[self.k:] = _unpack_u64(self._check_words(u.bits),\n"
           "                                    self.n - self.k)\n",
           "        word[self.k:] = 0\n",
           ("tests/test_gf2.py::TestLinearCode::test_encode_examples",)),
    # each attack kind reads only its own fields and names only itself
    Mutant("binding-reads-hiding-field", "cli.py",
           '        ("spread", float, 0.5), ("x0", str), ("x1", str),\n',
           '        ("spread", float, 0.5), ("x0", str), ("x1", str), '
           '("p_b", float),\n',
           ("tests/test_cli.py::TestAttack::"
            "test_field_of_the_other_kind_is_usage_error[binding-p_b---"
            "strategy]",)),
    Mutant("binding-kind-any", "cli.py",
           '        ("kind", str, None, ("binding",)),\n',
           '        ("kind", str),\n',
           ("tests/test_cli.py::TestAttack::"
            "test_other_kind_or_strategy_name_is_usage_error[binding-kind]",)),
    # the kind first, each value named by its source, readable subcommands
    Mutant("kind-checked-after-other-keys", "cli.py",
           '    kind = [option for option in args.options if option[0] == '
           '"kind"]\n', "    kind = []\n",
           ("tests/test_cli.py::TestAttack::"
            "test_file_of_the_other_kind_is_refused_by_its_kind"
            "[hiding-shared---strategy]",
            "tests/test_cli.py::TestAttack::"
            "test_file_of_the_other_kind_is_refused_by_its_kind"
            "[binding-full---config]")),
    Mutant("unread-value-named-by-flag", "cli.py",
           "                             % (args.which, args.sources[key]))\n",
           "                             % (args.which, name))\n",
           ("tests/test_cli.py::TestBoundsEval::"
            "test_flag_its_which_does_not_read_is_usage_error[dc]",)),
    Mutant("subcommand-dest-internal", "cli.py",
           'add_subparsers(dest="subcommand",\n',
           'add_subparsers(dest="sub",\n',
           ("tests/test_cli.py::TestOptionNames::"
            "test_unknown_subcommand_names_the_argument[attack]",)),
    # an advantage that passes only the parent's vacuous hamming74 bound
    Mutant("hiding-advantage-tenth-root", "adversary.py",
           "               np.take(table, m1.to_int() ^ masks, axis=1)"
           ".ravel())\n",
           "               np.take(table, m1.to_int() ^ masks, axis=1)"
           ".ravel()) ** 0.1\n",
           ("tests/test_acceptance.py::"
            "test_criterion_04_hiding_exact_desk_scale",)),
]


def run_node(src: pathlib.Path, node: str) -> str:
    """"failed", "passed" or "stale" for one node against the copy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")])), PYTHONDONTWRITEBYTECODE="1")
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", str(ROOT / node)], cwd=src.parent, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return "failed"
    # 1: a test failed, 2: collection failed; 4 and 5: no such node
    return {0: "passed", 1: "failed", 2: "failed"}.get(code, "stale")


def run_mutant(mutant: Mutant) -> str:
    """The entry's verdict: "killed", "SURVIVED ..." or "STALE ..."."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "usnc" / mutant.path
        text = target.read_text()
        if text.count(mutant.before) != 1:
            return "STALE: the before snippet does not occur exactly once"
        target.write_text(text.replace(mutant.before, mutant.after))
        for node in mutant.nodes:
            verdict = run_node(src, node)
            if verdict != "failed":
                return "%s: %s" % ("SURVIVED" if verdict == "passed"
                                   else "STALE", node)
    return "killed"


def main(argv=None) -> int:
    names = set(sys.argv[1:] if argv is None else argv)
    bad = 0
    for mutant in CATALOGUE:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        verdict = run_mutant(mutant)
        bad += verdict != "killed"
        print("%-36s %s (%.1f s)" % (mutant.name, verdict,
                                     time.perf_counter() - start), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
