"""The README's library quick tour runs and gives the values its comments show."""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_gives_the_commented_values():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Expr) and node.end_lineno in comments):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = comments[node.end_lineno]
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):  # not a literal: the comment is the repr
            assert repr(value) == comment, ast.unparse(node)
        else:
            assert value == expected, ast.unparse(node)
        checked += 1
    assert checked >= 11
