"""The README's python blocks run as written and give the values their
comments show."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def shown_values() -> dict:
    """Run the README's python blocks in order, in one namespace, and map
    the source of each expression statement to its value and the comment
    at the end of its last line ("" if none)."""
    ns, shown = {}, {}
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), ns)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), ns)
            tail = lines[node.end_lineno - 1][node.end_col_offset:]
            shown[ast.get_source_segment(block, node)] = (value, tail.partition("#")[2].strip())
    return shown


def test_the_readme_has_three_python_blocks():
    assert len(re.findall(r"```python\n", README.read_text())) == 3


def test_exact_values_in_comments_are_the_values():
    shown = shown_values()
    exact = {src: (value, comment) for src, (value, comment) in shown.items()
             if comment.startswith(("Fraction(", "[Fraction("))}
    assert set(exact) == {'inv.kernel.row("umbrella").weights',
                          "posterior(model, s).measure.weights",
                          'predictive(model, s, TestInputs(("b",))).measure.weight(1)'}
    for value, comment in exact.values():
        assert repr(value.tolist() if isinstance(value, np.ndarray) else value) == comment
    assert exact['inv.kernel.row("umbrella").weights'][1] == "[Fraction(1, 3), Fraction(2, 3)]"
    assert exact['predictive(model, s, TestInputs(("b",))).measure.weight(1)'][1] == \
        "Fraction(17, 30)"


def test_the_gaussian_posterior_is_the_one_in_its_comment():
    value, comment = shown_values()["q.at([2.0])"]
    match = re.fullmatch(r"posterior N\((\d+)/(\d+), (\d+)/(\d+)\) after observing y = 2",
                         comment)
    assert match and match.groups() == ("4", "3", "1", "3")
    a, b, c, d = map(int, match.groups())
    assert np.allclose(value.mean, [a / b], rtol=1e-12, atol=0.0)
    assert np.allclose(value.cov, [[c / d]], rtol=1e-12, atol=0.0)
