"""The parse memo: each source is parsed once per process and shared by
every opt level, so no compile may change the shared tree.

Each source is compiled at all four levels in two orders, each from an
empty memo (-O3 first, so that unrolling meets the tree before the other
levels do, and -O3 between them); every build must match
``golden_executables.json``, and after the -O3 build the memoised tree
must still equal a fresh parse.
"""

from __future__ import annotations

import json

import pytest

from repro import stages
from repro.compiler import CompilerOptions, compile_source, driver
from repro.compiler import ast_nodes as ast
from repro.compiler.parser import parse
from repro.compiler.passes import unrolled
from repro.programs import ALL_BENCHMARKS
from tests.compiler.test_golden_executables import GOLDEN, digest

ORDERS = ((3, 0, 1, 2), (0, 3, 2, 1))


@pytest.mark.parametrize("order", ORDERS, ids=lambda order: "-".join(map(str, order)))
def test_every_order_gives_the_golden_binaries(order):
    golden = json.loads(GOLDEN.read_text())
    stages.clear()
    differ = [f"{bench.name}/O{level}" for bench in ALL_BENCHMARKS for level in order
              if digest(bench.name, level) != golden[f"{bench.name}/O{level}"]]
    assert not differ, f"memoised parses moved {differ}"


def test_unrolling_leaves_the_memoised_tree_as_parsed():
    stages.clear()
    for bench in ALL_BENCHMARKS:
        compile_source(bench.source, CompilerOptions.from_level(3))
        tree = driver._PARSED[bench.source]
        assert tree == parse(bench.source), f"-O3 changed the tree of {bench.name}"
        # a later build reads the memoised tree, not a new parse
        compile_source(bench.source, CompilerOptions.from_level(0))
        assert driver._PARSED[bench.source] is tree


def test_the_memo_stays_within_its_cap():
    stages.clear()
    for bench in ALL_BENCHMARKS * 2:
        compile_source(bench.source, opt_level=1)
    for index in range(stages.MEMORY_CAP + 5):
        compile_source(f"int x{index}; int main(void) {{ return 0; }}", opt_level=1)
    assert len(driver._PARSED) == stages.MEMORY_CAP
    stages.clear()
    assert not driver._PARSED


#: a for loop around a while loop whose body holds an unrollable for loop:
#: the while loop does not report the inner unrolling, so the outer loop
#: is unrolled too, and only it is counted
_NESTED = """
int a[64];
int main(void) {
    int i; int j;
    for (i = 0; i < 8; i++) {
        j = 0;
        while (j < 2) { int k; for (k = 0; k < 8; k++) a[k] += k; j++; }
    }
    return 0;
}
"""


def test_unrolling_a_shared_tree_copies_what_it_rewrites():
    tree = parse(_NESTED)
    result, count = unrolled(tree, 4)
    assert count == 1
    assert tree == parse(_NESTED)
    [block] = [stmt for stmt in result.functions[0].body.body
               if isinstance(stmt, ast.BlockStmt)]
    # the outer loop became its unrolled copy and its remainder loop
    assert [type(stmt) for stmt in block.body][-2:] == [ast.ForStmt, ast.ForStmt]
