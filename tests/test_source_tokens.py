"""Every module of the package stays under 8,192 significant tokens.

CPython's parser doubles its token array when a module passes that size,
and the package is compiled from source wherever bytecode is not written,
so a module that crosses it raises the peak memory of every process that
imports it.  Significant tokens are those of ``tokenize`` less comments
and non-logical newlines."""

import tokenize
from pathlib import Path

import pytest

LIMIT = 8192
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multicat"


def significant_tokens(path):
    with open(path, "rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("module", sorted(p.name for p in
                                          PACKAGE.glob("*.py")))
def test_module_stays_under_the_token_step(module):
    count = significant_tokens(PACKAGE / module)
    assert count < LIMIT, (
        f"src/multicat/{module} has {count} significant tokens, "
        f"at or over {LIMIT}")
