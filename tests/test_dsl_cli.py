"""The document format, diagnostics, the driver, and determinism."""

import hashlib
import importlib
import json
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import multicat
from multicat import dsl, jsonio
from multicat.cli import COMMAND_TABLE, SUBCOMMANDS, main


def run_cli(*argv):
    return main(list(argv))


class TestParse:
    def test_trivial_document(self):
        text = ("multicategory I\n  color u\n  ops (u;u) = 1\n"
                "  unit u = 1\n  comp (u;u) 1 1 (u;u) 1 = 1\n")
        ast, diags = dsl.parse(text)
        assert ast is not None and not diags
        objects, ediags = dsl.elaborate(ast)
        assert not ediags and "I" in objects

    def test_unknown_block_kind(self):
        ast, diags = dsl.parse("widget W\n  color u\n")
        assert ast is None
        assert any(d.code == "SYNTAX" and d.line == 1 for d in diags)

    def test_unresolved_color_reference(self):
        text = ("multicategory M\n  color u\n  ops (u;v) = f\n"
                "  unit u = 1\n")
        ast, _ = dsl.parse(text)
        _, diags = dsl.elaborate(ast)
        assert any(d.code == "RESOLVE" and "v" in d.message for d in diags)

    def test_mismatched_relation_signature(self):
        text = ("collection G\n  color x\n  ops (x,x;x) = m\n"
                "  act (x,x;x) m [2,1] = m\n\n"
                "presentation P over G\n"
                "  rel (x,x;x) m($1,$2) = m(m($1,$2),$3)\n")
        ast, _ = dsl.parse(text)
        _, diags = dsl.elaborate(ast)
        assert any(d.code in ("STRUCT", "SYNTAX") for d in diags)

    def test_bimodule_missing_action_row(self):
        text = ("multicategory I\n  color u\n  ops (u;u) = 1\n"
                "  unit u = 1\n  comp (u;u) 1 1 (u;u) 1 = 1\n\n"
                "bimodule B : I | I\n  ops (u,u;u) = m\n"
                "  act (u,u;u) m [2,1] = m\n")
        ast, _ = dsl.parse(text)
        _, diags = dsl.elaborate(ast)
        assert any(d.code == "STRUCT" and "action row" in d.message
                   for d in diags)

    def test_diagnostics_carry_positions(self):
        ast, diags = dsl.parse("multicategory\n")
        assert ast is None
        assert diags[0].line == 1 and diags[0].col >= 1


class TestRoundTrip:
    def test_all_fixture_documents(self, docs_dir):
        for path in sorted(docs_dir.glob("*.mcat")):
            text = path.read_text()
            ast, diags = dsl.parse(text)
            assert ast is not None, (path, diags)
            printed = dsl.print_ast(ast)
            ast2, _ = dsl.parse(printed)
            assert dsl.print_ast(ast2) == printed, path
            objects, ediags = dsl.elaborate(ast)
            assert not [d for d in ediags if d.code != "LAW"], (path, ediags)
            assert not [d for d in ediags if d.code == "LAW"], path

    def test_fixture_documents_are_normalized(self, docs_dir):
        # parse o print is the identity on the shipped files themselves
        for path in sorted(docs_dir.glob("*.mcat")):
            text = path.read_text()
            ast, _ = dsl.parse(text)
            assert dsl.print_ast(ast) == text, path


class TestCli:
    def test_check_ok(self, docs_dir):
        assert run_cli("check", str(docs_dir / "as3.mcat")) == 0

    def test_check_law_failure_exit_one(self, tmp_path, docs_dir):
        text = (docs_dir / "as2.mcat").read_text()
        bad = text.replace("comp (x;x) w0 1 (x,x;x) w01 = w01",
                           "comp (x;x) w0 1 (x,x;x) w01 = w10")
        path = tmp_path / "bad.mcat"
        path.write_text(bad)
        assert run_cli("check", str(path)) == 1

    def test_unknown_flag_exit_two(self, docs_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "multicat.cli", "check",
             str(docs_dir / "i.mcat"), "--no-such-flag"],
            capture_output=True)
        assert proc.returncode == 2

    def test_compose_artifact(self, docs_dir, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = run_cli("compose", str(docs_dir / "as3.mcat"),
                       "--name", "As3", "--op-sig", "(x,x;x)", "--op",
                       "w01", "--slot", "1", "--arg-sig", "(x,x;x)",
                       "--arg", "w10", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"] == "w102"

    def test_tensor_unit_law(self, docs_dir, tmp_path):
        out = tmp_path / "t.json"
        code = run_cli("tensor", str(docs_dir / "com2.mcat"),
                       "Com2", "Com2", "--cap-arity", "4",
                       "--cap-vertices", "4", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["saturation"]["stabilized"]
        assert all(n == 1 for n in doc["saturation"]["classes"].values())

    def test_exports_byte_identical(self, docs_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("export", str(docs_dir / "as3.mcat"),
                           "--name", "As3", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_equiv_exit_codes(self, docs_dir):
        assert run_cli("equiv", str(docs_dir / "twocolor.mcat"),
                       "--name", "Skel") == 0
        assert run_cli("equiv", str(docs_dir / "twocolor.mcat"),
                       "--name", "Collapse") == 1

    def test_saturate_presentation(self, docs_dir, tmp_path):
        out = tmp_path / "s.json"
        code = run_cli("saturate", str(docs_dir / "magma.mcat"),
                       "--name", "Magma", "--cap-arity", "4",
                       "--cap-vertices", "3", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["saturation"]["stabilized"]

    def test_end_of_map_honours_budget(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multicat.cli", "end", "dummy",
             "--carrier", "x=a,b", "--cap-arity", "2", "--budget", "5",
             "--map", "x=a:b,b:a", "--target-carrier", "x=a,b"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "exceed the materialization limit 5" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_multicolored_adjunction(self, docs_dir, tmp_path):
        out = tmp_path / "adj.json"
        assert run_cli("adjunction", str(docs_dir / "twocolor.mcat"),
                       "Pair", "Point", "Pair", "--cap-arity", "2",
                       "--cap-vertices", "2", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["bijective"] and doc["round_trips_ok"]
        assert doc["tensor_side"] == doc["hom_side"] == 4

    def test_adjunction_into_truncated_target_is_refused(self, docs_dir,
                                                         capsys):
        # the tensor I(x)As2 at caps (4, 4) has operations up to arity 4;
        # As2 stops at arity 2, so the hom side cannot be evaluated in it
        code = run_cli("adjunction", str(docs_dir / "adjunction.mcat"),
                       "I", "As2", "As2", "--cap-arity", "4",
                       "--cap-vertices", "4")
        got = capsys.readouterr()
        assert code == 1 and got.out == ""
        assert got.err == (
            "error: As2 is truncated: it has no operations at (x,x,x,x;x), "
            "where the tensor's (u.x,u.x,u.x,u.x;u.x) must go\n")

    def test_multifunctor_budget_message(self, docs_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "multicat.cli", "hom",
             str(docs_dir / "com2.mcat"), "Com2", "Com2", "--objects-only",
             "--budget", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "multifunctor search exceeded 1 candidates" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_partial_action_generator_is_a_diagnostic(self, tmp_path):
        path = tmp_path / "partial.mcat"
        path.write_text("multicategory Bad\n  color x\n"
                        "  ops (x,x;x) = m n\n"
                        "  act (x,x;x) m [2,1] = n\n")
        proc = subprocess.run(
            [sys.executable, "-m", "multicat.cli", "check", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr + proc.stdout
        assert "1:0: STRUCT: action generator (1, 0) at x,x;x has no " \
            "entry for n" in proc.stderr + proc.stdout

    def test_missing_block_usage_error(self, docs_dir):
        assert run_cli("export", str(docs_dir / "i.mcat"),
                       "--name", "NoSuch") == 2


class TestCommandTable:
    def test_every_operation_has_exactly_one_subcommand(self):
        ops = {
            "parse", "elaborate", "run",
            "check_multicategory_laws", "compose",
            "is_equivalence", "nerve", "restrict_objects",
            "extend_objects_injective",
            "graft", "op_compose", "op_hom_set", "free_multicategory",
            "circle_product",
            "saturate", "coproduct", "bv_tensor", "arrow_multicategory",
            "pushout",
            "check_multifunctor", "enumerate_multifunctors", "is_k_natural",
            "naturality_on_generators", "internal_hom", "adjunction_check",
            "end_multicategory", "free_algebra", "enumerate_algebras",
            "end_module", "end_of_map", "op_algebra_to_operad",
            "p1_algebras_as_triples",
            "check_bimodule", "end_right_module", "analyze_pointed",
            "bar_complex", "hochschild", "restrict_module",
            "export",
        }
        ops.discard("run")  # the driver itself
        for op in ops:
            assert op in COMMAND_TABLE, op
            assert COMMAND_TABLE[op] in SUBCOMMANDS
        # and nothing maps to several subcommands: the table is a function
        assert len(COMMAND_TABLE) == len(set(COMMAND_TABLE))

    def test_every_listed_operation_exists(self):
        # the converse: a deleted operation cannot stay in the table
        modules = [importlib.import_module(f"multicat.{m.name}")
                   for m in pkgutil.iter_modules(multicat.__path__)]
        for op in COMMAND_TABLE.keys() - {"compose", "export"}:
            assert any(callable(getattr(m, op, None)) for m in modules), op


# sha256 of the JSON artifacts of the search-backed subcommands, taken
# before the multifunctor and module-homomorphism searches were merged
# (the two-colored hom: before the transformation search moved onto
# core.backtrack)
SEARCH_DIGESTS = {
    "hom": (
        ("hom", "com2.mcat", "Com2", "Com2", "--cap-arity", "2"),
        "96409e653b771eb47af85d7e95a32c8780179a84f4dc24b8f83c5cc56069bc25"),
    "hom-objects-only": (
        ("hom", "com2.mcat", "Com2", "Com2", "--objects-only"),
        "847ae2273b47c42c354a033047eefb1c52a171338c5c6798d1cc1cbff3550633"),
    "hom-two-colors": (
        ("hom", "twocolor.mcat", "Pair", "Pair", "--cap-arity", "2"),
        "102b4be2688a90b4f25fbb595f5d47fe3ed2e7387171816db4fdbb463aa7a4b4"),
    "algebras": (
        ("algebras", "as3.mcat", "--name", "As3", "--carrier", "x=a,b"),
        "a37c1f4368be8d034ec226eae315beeca5c6415e4b1114ef2da776a9ed2f56ed"),
    "end-module": (
        ("end", "bimod.mcat", "--module", "Reg"),
        "a2ad5edc6b43edc1295662cbc9569492b75ec60d979ae360cf6b974b15882b26"),
    "end-analyze": (
        ("end", "bimod.mcat", "--module", "Reg", "--analyze"),
        "f7f26935111063dd1b28594df3a0e61e72c55015e75e4272987f0e8554e2c70a"),
    "adjunction": (
        ("adjunction", "adjunction.mcat", "I", "As2", "As2",
         "--cap-arity", "2", "--cap-vertices", "3"),
        "3e545123a89df0e451763f1bb5791b4324adeebf27266d4bb75616cb5e3e68da"),
}


@pytest.mark.parametrize("name", sorted(SEARCH_DIGESTS))
def test_search_outputs_unchanged(name, docs_dir, tmp_path):
    (command, document, *rest), digest = SEARCH_DIGESTS[name]
    out = tmp_path / "out.json"
    assert run_cli(command, str(docs_dir / document), *rest,
                   "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the exit code, stdout and stderr of the simplicial
# subcommands, taken while the face and degeneracy tables were dicts keyed
# by the simplices
SIMPLICIAL_DIGESTS = {
    "nerve-pair": (
        ("nerve", "twocolor.mcat", "--name", "Pair", "--depth", "3"),
        "25ae89006f7a073b850001bb75971e21d92f35f4149f29b9b52884197794337b"),
    "bar-reg": (
        ("bar", "bimod.mcat", "--x", "Reg", "--p", "As2pos", "--y", "Reg",
         "--cap-arity", "2"),
        "b94774a13cd9d0d314190fc2c08271fec01acd7fd1146a270b8d331da71f5a9b"),
    "hochschild-as2pos": (
        ("hochschild", "bimod.mcat", "--name", "As2pos", "--levels", "4",
         "--cap-arity", "2"),
        "3a6ef7dc51f258fcd69e22efbe5db9b440f0137bbf510e63803a371d12dfaff5"),
    "hochschild-as2-level1": (
        ("hochschild", "as2.mcat", "--name", "As2", "--levels", "1",
         "--cap-arity", "2"),
        "d6d859f32861eaadc9069e8a67092d22c8eb94f3fb88ecc1087376c85ecfd6e1"),
    "hochschild-com2-level1": (
        ("hochschild", "com2.mcat", "--name", "Com2", "--levels", "1",
         "--cap-arity", "2"),
        "5cffc02f80618fbf416bb77333b51fa9e02340c5e05545fea04f9deef45f8c87"),
    "hochschild-as3-level1": (
        ("hochschild", "as3.mcat", "--name", "As3", "--levels", "1",
         "--cap-arity", "2"),
        "ede7749acd0e0646d40eeb79cbc8d663c6fe375742d99947c5643e527a9779b8"),
}


def _run_digest(capsys, docs_dir, command, document, *rest):
    """sha256 of the exit code, stdout and stderr of one CLI run."""
    code = run_cli(command, str(docs_dir / document), *rest)
    got = capsys.readouterr()
    text = f"{code}\n{got.out}\0{got.err}"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SIMPLICIAL_DIGESTS))
def test_simplicial_outputs_unchanged(name, docs_dir, capsys):
    argv, digest = SIMPLICIAL_DIGESTS[name]
    assert _run_digest(capsys, docs_dir, *argv) == digest


# sha256 of the exit code, stdout and stderr of the nerve of every
# multicategory block of every shipped document, as a category and to
# depth 3, and of the equivalence reports, taken while the nerve and the
# equivalence test read a separate category type copied off the table
CATEGORY_DIGESTS = {
    "category-adjunction-I": (
        ("nerve", "adjunction.mcat", "--name", "I", "--category-only"),
        "a14c4a107b85ade6c03fce3303b7cdde14dc9157ffd18e18f527073da489231d"),
    "nerve-adjunction-I": (
        ("nerve", "adjunction.mcat", "--name", "I", "--depth", "3"),
        "3bb8d0ab2a254059658cfdd99f58904d98a30880e2444438b7441e196bece978"),
    "category-adjunction-Com2": (
        ("nerve", "adjunction.mcat", "--name", "Com2", "--category-only"),
        "2c364e7ed4c77e5b9a9b5270ec6f4b9d282d6a6ab6d67c1e09a44743141d7cf0"),
    "nerve-adjunction-Com2": (
        ("nerve", "adjunction.mcat", "--name", "Com2", "--depth", "3"),
        "cefa11c2abad48342e42e6f776346e49f8bf710342e6b540ad1204b6b930c9fe"),
    "category-adjunction-As2": (
        ("nerve", "adjunction.mcat", "--name", "As2", "--category-only"),
        "d500a425fcd7a8c347b67f76a19b8d8dfbd061309c54805c9bc7f09e891fdd36"),
    "nerve-adjunction-As2": (
        ("nerve", "adjunction.mcat", "--name", "As2", "--depth", "3"),
        "0fd049e869000b98be976c240eaf3f76cbfbd453dad1d78019ff4f84a0269ae4"),
    "category-alg-As3": (
        ("nerve", "alg.mcat", "--name", "As3", "--category-only"),
        "d500a425fcd7a8c347b67f76a19b8d8dfbd061309c54805c9bc7f09e891fdd36"),
    "nerve-alg-As3": (
        ("nerve", "alg.mcat", "--name", "As3", "--depth", "3"),
        "0fd049e869000b98be976c240eaf3f76cbfbd453dad1d78019ff4f84a0269ae4"),
    "category-as2-As2": (
        ("nerve", "as2.mcat", "--name", "As2", "--category-only"),
        "d500a425fcd7a8c347b67f76a19b8d8dfbd061309c54805c9bc7f09e891fdd36"),
    "nerve-as2-As2": (
        ("nerve", "as2.mcat", "--name", "As2", "--depth", "3"),
        "0fd049e869000b98be976c240eaf3f76cbfbd453dad1d78019ff4f84a0269ae4"),
    "category-as2pos-As2pos": (
        ("nerve", "as2pos.mcat", "--name", "As2pos", "--category-only"),
        "d500a425fcd7a8c347b67f76a19b8d8dfbd061309c54805c9bc7f09e891fdd36"),
    "nerve-as2pos-As2pos": (
        ("nerve", "as2pos.mcat", "--name", "As2pos", "--depth", "3"),
        "0fd049e869000b98be976c240eaf3f76cbfbd453dad1d78019ff4f84a0269ae4"),
    "category-as3-As3": (
        ("nerve", "as3.mcat", "--name", "As3", "--category-only"),
        "d500a425fcd7a8c347b67f76a19b8d8dfbd061309c54805c9bc7f09e891fdd36"),
    "nerve-as3-As3": (
        ("nerve", "as3.mcat", "--name", "As3", "--depth", "3"),
        "0fd049e869000b98be976c240eaf3f76cbfbd453dad1d78019ff4f84a0269ae4"),
    "category-bimod-As2pos": (
        ("nerve", "bimod.mcat", "--name", "As2pos", "--category-only"),
        "d500a425fcd7a8c347b67f76a19b8d8dfbd061309c54805c9bc7f09e891fdd36"),
    "nerve-bimod-As2pos": (
        ("nerve", "bimod.mcat", "--name", "As2pos", "--depth", "3"),
        "0fd049e869000b98be976c240eaf3f76cbfbd453dad1d78019ff4f84a0269ae4"),
    "category-com2-Com2": (
        ("nerve", "com2.mcat", "--name", "Com2", "--category-only"),
        "2c364e7ed4c77e5b9a9b5270ec6f4b9d282d6a6ab6d67c1e09a44743141d7cf0"),
    "nerve-com2-Com2": (
        ("nerve", "com2.mcat", "--name", "Com2", "--depth", "3"),
        "cefa11c2abad48342e42e6f776346e49f8bf710342e6b540ad1204b6b930c9fe"),
    "category-com3-Com3": (
        ("nerve", "com3.mcat", "--name", "Com3", "--category-only"),
        "2c364e7ed4c77e5b9a9b5270ec6f4b9d282d6a6ab6d67c1e09a44743141d7cf0"),
    "nerve-com3-Com3": (
        ("nerve", "com3.mcat", "--name", "Com3", "--depth", "3"),
        "cefa11c2abad48342e42e6f776346e49f8bf710342e6b540ad1204b6b930c9fe"),
    "category-i-I": (
        ("nerve", "i.mcat", "--name", "I", "--category-only"),
        "a14c4a107b85ade6c03fce3303b7cdde14dc9157ffd18e18f527073da489231d"),
    "nerve-i-I": (
        ("nerve", "i.mcat", "--name", "I", "--depth", "3"),
        "3bb8d0ab2a254059658cfdd99f58904d98a30880e2444438b7441e196bece978"),
    "category-trees2-Trees2": (
        ("nerve", "trees2.mcat", "--name", "Trees2", "--category-only"),
        "4421bf9d20b6c1ab853b96d9d6ea7a3116d5f3f0375a338c7a6f10fef8011a54"),
    "nerve-trees2-Trees2": (
        ("nerve", "trees2.mcat", "--name", "Trees2", "--depth", "3"),
        "93831c26aa508f1972e0c09dc0fdb04294f517eee72962b14447da87e5282aa7"),
    "category-twocolor-Pair": (
        ("nerve", "twocolor.mcat", "--name", "Pair", "--category-only"),
        "f22a47fcd2d1d48cca2792a20137ffda3bb8ab5e68b118a0b3d68c84b352a131"),
    "nerve-twocolor-Pair": (
        ("nerve", "twocolor.mcat", "--name", "Pair", "--depth", "3"),
        "25ae89006f7a073b850001bb75971e21d92f35f4149f29b9b52884197794337b"),
    "category-twocolor-Discrete": (
        ("nerve", "twocolor.mcat", "--name", "Discrete", "--category-only"),
        "8e21e3195a11e2b25c428f859271c2fa6ef843334bc77df9dfa21e6a2a723c8c"),
    "nerve-twocolor-Discrete": (
        ("nerve", "twocolor.mcat", "--name", "Discrete", "--depth", "3"),
        "2deb1c5332fb9ef02e8ec05506a8ffc206f96c0ac4365d06304479c945b4d98e"),
    "category-twocolor-Point": (
        ("nerve", "twocolor.mcat", "--name", "Point", "--category-only"),
        "7fb40b4294b49f3f031094560045ad8761a4e70c2f807b9cc331e585caccea05"),
    "nerve-twocolor-Point": (
        ("nerve", "twocolor.mcat", "--name", "Point", "--depth", "3"),
        "2f3cc0b75d4bf9fb21669bfbf43aa724a91e101b09f1be85518ac01fb3717e85"),
    "equiv-Skel": (
        ("equiv", "twocolor.mcat", "--name", "Skel"),
        "aac314d711d1dcfbe0494fb041f839526d9b9424215ab3f01e344343c4499bda"),
    "equiv-Collapse": (
        ("equiv", "twocolor.mcat", "--name", "Collapse"),
        "aeb532c546c6fc12b3af78b429a8eca81127b7e22d8c13f254b73d8544b9b4c1"),
}


@pytest.mark.parametrize("name", sorted(CATEGORY_DIGESTS))
def test_category_outputs_unchanged(name, docs_dir, capsys):
    argv, digest = CATEGORY_DIGESTS[name]
    assert _run_digest(capsys, docs_dir, *argv) == digest


# a malformed or missing option value, one per option: (argv, stderr)
MALFORMED_OPTIONS = {
    "export-restrict-map": (
        ("export", "as2.mcat", "--name", "As2", "--restrict-map", "x"),
        "usage error: malformed --restrict-map value 'x'"),
    "export-extend-map": (
        ("export", "as2.mcat", "--name", "As2", "--extend-map", "x"),
        "usage error: malformed --extend-map value 'x'"),
    "saturate-coproduct": (
        ("saturate", "as2.mcat", "--coproduct", "As2"),
        "usage error: malformed --coproduct value 'As2'"),
    "saturate-pushout": (
        ("saturate", "as2.mcat", "--pushout", "As2"),
        "usage error: malformed --pushout value 'As2'"),
    "bar-circle": (
        ("bar", "as2.mcat", "--circle", "As2"),
        "usage error: malformed --circle value 'As2'"),
    "bar-restrict": (
        ("bar", "as2.mcat", "--restrict", "As2"),
        "usage error: malformed --restrict value 'As2'"),
    "end-map": (
        ("end", "as2.mcat", "--carrier", "x=a,b", "--map", "x=a",
         "--target-carrier", "x=a,b"),
        "usage error: malformed --map value 'x=a'"),
    "end-map-without-target": (
        ("end", "as2.mcat", "--carrier", "x=a,b", "--map", "x=a:b,b:a"),
        "usage error: --target-carrier is required here"),
    "free-tree-homs": (
        ("free", "as2.mcat", "--tree-homs", "a;2"),
        "usage error: malformed --tree-homs value 'a;2'"),
    "algebras-p1": (
        ("algebras", "as2.mcat", "--name", "As2", "--p1", "x=a"),
        "usage error: malformed --p1 value 'x=a'"),
    "algebras-without-carrier": (
        ("algebras", "as2.mcat", "--name", "As2"),
        "usage error: --carrier is required here"),
    "saturate-without-name": (
        ("saturate", "magma.mcat"), "usage error: --name is required here"),
    "free-without-name": (
        ("free", "magma.mcat"), "usage error: --name is required here"),
    "bar-without-x": (
        ("bar", "bimod.mcat"), "usage error: --x is required here"),
    "bar-without-p": (
        ("bar", "bimod.mcat", "--x", "Reg"),
        "usage error: --p is required here"),
    # a block of the wrong kind
    "free-presentation": (
        ("free", "magma.mcat", "--name", "Magma"),
        "usage error: block 'Magma' has the wrong kind"),
    "free-bimodule": (
        ("free", "bimod.mcat", "--name", "Reg"),
        "usage error: block 'Reg' has the wrong kind"),
    "free-algebra": (
        ("free", "alg.mcat", "--name", "Mon2"),
        "usage error: block 'Mon2' has the wrong kind"),
    "saturate-coproduct-of-collections": (
        ("saturate", "magma.mcat", "--coproduct", "Binary,Binary"),
        "usage error: block 'Binary' has the wrong kind"),
    "saturate-pushout-of-multicategories": (
        ("saturate", "twocolor.mcat", "--pushout", "Pair,Pair"),
        "usage error: block 'Pair' has the wrong kind"),
    "equiv-multicategory": (
        ("equiv", "as2.mcat", "--name", "As2"),
        "usage error: block 'As2' has the wrong kind"),
    "bar-x-algebra": (
        ("bar", "alg.mcat", "--x", "Mon2", "--p", "As3", "--y", "As3"),
        "usage error: block 'Mon2' has the wrong kind"),
    "bar-y-algebra": (
        ("bar", "alg.mcat", "--x", "As3", "--p", "As3", "--y", "Mon2"),
        "usage error: block 'Mon2' has the wrong kind"),
    "bar-restrict-algebra": (
        ("bar", "alg.mcat", "--restrict", "Mon2,As3"),
        "usage error: block 'Mon2' has the wrong kind"),
    "bar-restrict-along-a-multicategory": (
        ("bar", "bimod.mcat", "--restrict", "Reg,As2pos"),
        "usage error: block 'As2pos' has the wrong kind"),
    "algebras-roundtrip-multicategory": (
        ("algebras", "alg.mcat", "--name", "As3", "--roundtrip", "As3"),
        "usage error: block 'As3' has the wrong kind"),
}


# a value out of an operation's domain: (argv, stderr); exit code 1
DOMAIN_ERRORS = {
    "free-negative-arity": (
        ("free", "magma.mcat", "--name", "Binary", "--cap-arity", "-1"),
        "error: the arity and vertex caps must be >= 0"),
    "free-negative-vertices": (
        ("free", "magma.mcat", "--name", "Binary", "--cap-vertices", "-1"),
        "error: the arity and vertex caps must be >= 0"),
    "saturate-negative-arity": (
        ("saturate", "magma.mcat", "--name", "Magma", "--cap-arity", "-1"),
        "error: the arity and vertex caps must be >= 0"),
    "algebras-negative-arity": (
        ("algebras", "as2.mcat", "--name", "As2", "--carrier", "x=a",
         "--cap-arity", "-1"),
        "error: the arity and vertex caps must be >= 0"),
    "algebras-negative-vertices": (
        ("algebras", "as2.mcat", "--name", "As2", "--carrier", "x=a",
         "--cap-vertices", "-1"),
        "error: the arity and vertex caps must be >= 0"),
    "algebras-carrier-without-color": (
        ("algebras", "com3.mcat", "--name", "Com3", "--carrier", "y=a,b"),
        "error: the target has no color x"),
    "algebras-free-carrier-without-color": (
        ("algebras", "as3.mcat", "--name", "As3", "--free", "--carrier",
         "y=a"),
        "error: the target has no color x"),
    "hochschild-negative-levels": (
        ("hochschild", "as2pos.mcat", "--name", "As2pos", "--levels", "-1"),
        "error: levels and the arity cap must be >= 0"),
    "end-partial-map": (
        ("end", "as2.mcat", "--carrier", "x=a,b", "--map", "y=a:b",
         "--target-carrier", "x=a,b"),
        "error: map not total on carrier x"),
    "end-target-without-color": (
        ("end", "as2.mcat", "--carrier", "x=a,b", "--map", "x=a:b,b:a",
         "--target-carrier", "y=a,b"),
        "error: the target has no carrier x"),
    "hom-negative-arity": (
        ("hom", "as2.mcat", "As2", "As2", "--cap-arity", "-1"),
        "error: the arity cap must be >= 0"),
    "end-negative-arity": (
        ("end", "as2.mcat", "--carrier", "x=a,b", "--cap-arity", "-1"),
        "error: the arity cap must be >= 0"),
    "end-map-negative-arity": (
        ("end", "as2.mcat", "--carrier", "x=a,b", "--map", "x=a:b,b:a",
         "--target-carrier", "x=a,b", "--cap-arity", "-1"),
        "error: the arity cap must be >= 0"),
    "end-pair-negative-arity": (
        ("end", "as2.mcat", "--carrier", "x=a,b", "--pair-target", "x=a,b",
         "--cap-arity", "-1"),
        "error: the arity cap must be >= 0"),
    # 2^(3^9) has 5,926 digits, past the 4,300 that Python turns into text
    "end-pair-count-too-long": (
        ("end", "as2.mcat", "--carrier", "x=a,b,c", "--pair-target", "x=a,b",
         "--cap-arity", "9"),
        "error: 2^19683 operations at x,x,x,x,x,x,x,x,x;x: the count has "
        "more than 4300 digits"),
    "circle-negative-arity": (
        ("bar", "as2.mcat", "--circle", "As2,As2", "--cap-arity", "-1"),
        "error: the arity cap must be >= 0"),
    # --slot counts from 1, and so do the messages
    "compose-slot-zero": (
        ("compose", "as2.mcat", "--name", "As2", "--op-sig", "(x,x;x)",
         "--op", "w01", "--slot", "0", "--arg-sig", "(x,x;x)", "--arg",
         "w01"),
        "error: --slot 0 out of range for arity 2"),
    "compose-slot-past-arity": (
        ("compose", "as2.mcat", "--name", "As2", "--op-sig", "(x,x;x)",
         "--op", "w01", "--slot", "5", "--arg-sig", "(x,x;x)", "--arg",
         "w01"),
        "error: --slot 5 out of range for arity 2"),
    "compose-unknown-op": (
        ("compose", "as2.mcat", "--name", "As2", "--op-sig", "(x,x;x)",
         "--op", "nope", "--slot", "1", "--arg-sig", "(x,x;x)", "--arg",
         "w01"),
        "error: no operation nope at x,x;x"),
    "compose-unknown-arg": (
        ("compose", "as2.mcat", "--name", "As2", "--op-sig", "(x,x;x)",
         "--op", "w01", "--slot", "1", "--arg-sig", "(x,x;x)", "--arg",
         "nope"),
        "error: no operation nope at x,x;x"),
    "compose-op-off-its-signature": (
        ("compose", "as2.mcat", "--name", "As2", "--op-sig", "(x,x,x;x)",
         "--op", "w01", "--slot", "1", "--arg-sig", "(x,x;x)", "--arg",
         "w01"),
        "error: no operation w01 at x,x,x;x"),
    "compose-color-mismatch": (
        ("compose", "twocolor.mcat", "--name", "Pair", "--op-sig", "(a;b)",
         "--op", "f", "--slot", "1", "--arg-sig", "(a;b)", "--arg", "f"),
        "error: --slot 1 of a;b takes a, --arg outputs b"),
    "compose-outside-the-table": (
        ("compose", "as2.mcat", "--name", "As2", "--op-sig", "(x,x;x)",
         "--op", "w01", "--slot", "2", "--arg-sig", "(x,x;x)", "--arg",
         "w01"),
        "error: no composite of x,x;x:w01 and x,x;x:w01 at --slot 2"),
    "algebras-roundtrip-not-over-trees": (
        ("algebras", "alg.mcat", "--name", "As3", "--roundtrip", "Mon2"),
        "error: the algebra does not act by the tree *1 at ;1: the "
        "read-off needs an algebra over the tree multicategory"),
    "algebras-p1-carrier-without-color": (
        ("algebras", "com3.mcat", "--name", "Com3", "--p1", "x=a|y=a,b"),
        "error: the target has no color x"),
    # a module is restricted along a multifunctor into its own right
    # multicategory, whose numbers index the action
    "restrict-along-a-functor-into-another-table": (
        ("bar", "twocolor.mcat", "--restrict", "Pair,Collapse"),
        "error: Collapse lands in Point, not in Pair, which acts on "
        "Pair-bimod from the right"),
    "restrict-along-a-functor-out-of-another-table": (
        ("bar", "twocolor.mcat", "--restrict", "Point,Skel"),
        "error: Skel lands in Pair, not in Point, which acts on "
        "Point-bimod from the right"),
    "bar-with-another-acting-table": (
        ("bar", "twocolor.mcat", "--x", "Pair", "--p", "Point", "--y",
         "Pair", "--levels", "1", "--cap-arity", "1"),
        "error: Point does not act on Pair-bimod from the right"),
}


@pytest.mark.parametrize("name", sorted(DOMAIN_ERRORS))
def test_out_of_domain_value_is_a_domain_error(name, docs_dir, capsys,
                                               tmp_path):
    (command, document, *rest), message = DOMAIN_ERRORS[name]
    out = tmp_path / "artifact.json"
    code = run_cli(command, str(docs_dir / document), *rest,
                   "--out", str(out))
    got = capsys.readouterr()
    assert (code, got.out, got.err) == (1, "", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(MALFORMED_OPTIONS))
def test_malformed_option_is_a_usage_error(name, docs_dir, capsys):
    (command, document, *rest), message = MALFORMED_OPTIONS[name]
    assert run_cli(command, str(docs_dir / document), *rest) == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", message + "\n")


# every subcommand that reads a document, on one that does not parse
UNPARSABLE = {
    "compose": ("--name", "As2", "--op-sig", "(x;x)", "--op", "a",
                "--slot", "1", "--arg-sig", "(x;x)", "--arg", "a"),
    "free": ("--name", "As2"),
    "saturate": ("--name", "As2"),
    "tensor": ("As2", "As2"),
    "hom": ("As2", "As2"),
    "adjunction": ("As2", "As2", "As2"),
    "algebras": ("--name", "As2", "--carrier", "x=a"),
    "end": ("--module", "As2"),
    "bar": ("--x", "As2", "--p", "As2", "--y", "As2"),
    "hochschild": ("--name", "As2"),
    "equiv": ("--name", "As2"),
    "nerve": ("--name", "As2"),
    "export": ("--name", "As2"),
}


@pytest.mark.parametrize("command", sorted(UNPARSABLE))
def test_unparsable_document_gives_diagnostics(command, tmp_path, capsys):
    path = tmp_path / "bad.mcat"
    path.write_text("multicategory As2\n  color x\nbogus X\n")
    out = tmp_path / "artifact.json"
    code = run_cli(command, str(path), *UNPARSABLE[command],
                   "--out", str(out))
    got = capsys.readouterr()
    assert (code, got.out, got.err) == (
        1, "", "3:1: SYNTAX: unknown block kind 'bogus'\n")
    assert not out.exists()


def test_pair_target_counts_without_listing(capsys):
    # 3 ** 81 functions at (x,x,x,x;x): far too many to list, so the
    # sizes must come from the carriers
    assert run_cli("end", "dummy", "--carrier", "x=a,b,c", "--pair-target",
                   "x=a,b,c", "--cap-arity", "4") == 0
    sizes = json.loads(capsys.readouterr().out)["sizes"]
    assert sizes == {";x": 3, "x;x": 3 ** 3, "x,x;x": 3 ** 9,
                     "x,x,x;x": 3 ** 27, "x,x,x,x;x": 3 ** 81}


def test_free_takes_a_multicategory_through_its_collection(docs_dir,
                                                           capsys):
    from multicat.trees import free_multicategory

    As2 = dsl.elaborate(dsl.parse(
        (docs_dir / "as2.mcat").read_text())[0])[0]["As2"]
    for planar in ((), ("--planar",)):
        assert run_cli("free", str(docs_dir / "as2.mcat"), "--name", "As2",
                       "--cap-arity", "3", "--cap-vertices", "2",
                       *planar) == 0
        table, _ = free_multicategory(As2.collection, not planar, 3, 2)
        got = json.loads(capsys.readouterr().out)
        del got["free_report"]
        assert got == jsonio.multicategory_json(table)


# one malformed row of fixtures/bimod.mcat each: (line, replacement)
BIMODULE_MUTANTS = {
    "ops-without-ids": (17, "  ops (x,x;x)"),
    "act-without-perm": (19, "  act (x,x;x) w01"),
    "act-without-equals": (20, "  act (x,x;x) w10 [2,1] w10 w10"),
    "ract-slot-not-a-number": (
        21, "  ract (x,x;x) w01 a (x;x) w0 = (x,x;x) w01"),
}


@pytest.mark.parametrize("name", sorted(BIMODULE_MUTANTS))
def test_malformed_bimodule_row_is_a_diagnostic(name, docs_dir, tmp_path,
                                                capsys):
    lineno, row = BIMODULE_MUTANTS[name]
    lines = (docs_dir / "bimod.mcat").read_text().splitlines()
    assert lines[lineno - 1].split()[0] == row.split()[0]
    lines[lineno - 1] = row
    text = "\n".join(lines) + "\n"
    ast, diags = dsl.parse(text)
    assert ast is not None and not diags
    objects, diags = dsl.elaborate(ast)
    assert "Reg" not in objects and "As2pos" in objects
    assert [(d.code, d.line) for d in diags] == [("SYNTAX", lineno)]
    path = tmp_path / "mutant.mcat"
    path.write_text(text)
    assert run_cli("check", str(path)) == 1
    assert f"{lineno}:0: SYNTAX" in capsys.readouterr().err


# one row of a shipped fixture each that elaboration cannot use:
# (file, row, replacement, block dropped, diagnostic on the row's line)
# a malformed right side of the magma's relation on line 7: (term,
# column in the term literal, message)
MALFORMED_TERMS = {
    "unclosed": ("m($1,$2", 8, "expected , or )"),
    "leaf-without-number": ("m($,$2)", 4, "leaf number expected after $"),
    "too-few-arguments": ("m()", 4, "m expects 2 arguments"),
    "no-generator": ("($1)", 1, "generator name expected"),
    "trailing": ("m($1,$2)x", 9, "trailing characters"),
    "too-many-arguments": ("m($1,$2,$3)", 11,
                           "a bare leaf needs a surrounding generator"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TERMS))
def test_malformed_term_is_a_diagnostic(name, docs_dir, tmp_path, capsys):
    term, column, message = MALFORMED_TERMS[name]
    text = (docs_dir / "magma.mcat").read_text()
    path = tmp_path / "magma.mcat"
    path.write_text(text.replace("= m($1,m($2,$3))", "= " + term))
    assert run_cli("check", str(path)) == 1
    got = capsys.readouterr()
    assert (got.out, got.err) == (
        "", f"7:{column}: SYNTAX: {message} in term {term!r}\n")


ELABORATION_MUTANTS = {
    "comp-result-not-an-op": (
        "as3.mcat", "  comp (x,x,x;x) w021 2 (x;x) w0 = w021",
        "  comp (x,x,x;x) w021 2 (x;x) w0 = [2,1,3]", "As3", True),
    "unit-not-at-c-c": (
        "as3.mcat", "  unit x = w0", "  unit x = w01", "As3", True),
    "obj-misses-a-color": (
        "twocolor.mcat", "  obj b = a", "  obj unit = a", "Collapse", False),
    "algebra-value-off-carrier": (
        "alg.mcat", "  act (x,x;x) w01 = e z z z",
        "  act (x,x;x) w01 = e z z w0", "Mon2", True),
    "ract-unknown-element": (
        "bimod.mcat", "  ract (x,x;x) w10 1 (x;x) w0 = (x,x;x) w10",
        "  ract (x,x;x) w11 1 (x;x) w0 = (x,x;x) w10", "Reg", True),
    "lact-unknown-element": (
        "bimod.mcat", "  lact (x,x;x) w01 : (x;x) w0 (x;x) w0 = (x,x;x) w01",
        "  lact (x,x;x) w01 : (x;x) w0 (x;x) w0 = (x,x;x) w11", "Reg", True),
    "act-perm-wrong-arity": (
        "as3.mcat", "  act (x,x;x) w01 [2,1] = w10",
        "  act (x,x;x) w01 [2,1,3] = w10", "As3", True),
    "ract-result-off-signature": (
        "bimod.mcat", "  ract (x;x) w0 1 (x,x;x) w01 = (x,x;x) w01",
        "  ract (x;x) w0 1 (x,x;x) w01 = (x;x) w0", "Reg", True),
    "lact-result-off-signature": (
        "bimod.mcat", "  lact (x,x;x) w01 : (x;x) w0 (x;x) w0 = (x,x;x) w01",
        "  lact (x,x;x) w01 : (x;x) w0 (x;x) w0 = (x;x) w0", "Reg", True),
}


@pytest.mark.parametrize("name", sorted(ELABORATION_MUTANTS))
def test_unusable_row_is_a_diagnostic(name, docs_dir, tmp_path, capsys):
    file, row, new, dropped, on_row = ELABORATION_MUTANTS[name]
    lines = (docs_dir / file).read_text().splitlines()
    at = lines.index(row)
    lines[at] = new
    block_line = max(i for i in range(at) if not lines[i].startswith(" "))
    lineno = (at if on_row else block_line) + 1
    text = "\n".join(lines) + "\n"
    ast, diags = dsl.parse(text)
    assert ast is not None and not diags
    objects, diags = dsl.elaborate(ast)
    assert dropped not in objects
    assert [(d.code, d.line) for d in diags] == [("STRUCT", lineno)]
    path = tmp_path / "mutant.mcat"
    path.write_text(text)
    assert run_cli("check", str(path)) == 1
    err = capsys.readouterr().err
    assert f"{lineno}:0: STRUCT" in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(ELABORATION_MUTANTS))
def test_command_on_a_block_that_did_not_elaborate(name, docs_dir, tmp_path,
                                                   capsys):
    # the block is in the document, so the usage error must not say that
    # it is missing
    file, row, new, dropped, _ = ELABORATION_MUTANTS[name]
    lines = (docs_dir / file).read_text().splitlines()
    lines[lines.index(row)] = new
    path = tmp_path / "mutant.mcat"
    path.write_text("\n".join(lines) + "\n")
    for command in ("export", "free"):
        assert run_cli(command, str(path), "--name", dropped) == 2
        err = capsys.readouterr().err
        assert ": STRUCT" in err and "Traceback" not in err
        assert err.rstrip().splitlines()[-1] == (
            f"usage error: block {dropped!r} did not elaborate; see the "
            "diagnostics above")


def test_wrong_unit_ract_row_is_a_law_diagnostic(docs_dir, tmp_path, capsys):
    # the row is read before the unit, so the check sees it
    row = "  ract (x,x;x) w01 1 (x;x) w0 = (x,x;x) w01"
    text = (docs_dir / "bimod.mcat").read_text()
    assert text.count(row + "\n") == 1
    path = tmp_path / "mutant.mcat"
    path.write_text(text.replace(row, row[:-3] + "w10"))
    assert run_cli("check", str(path)) == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        "16:0: LAW: Reg: right-unit violated at "
        "((('x', 'x'), 'x'), 'w01') slot 0")


FIXTURE_TEXTS = sorted(
    p.read_text()
    for p in (Path(__file__).resolve().parent.parent / "fixtures").glob(
        "*.mcat"))


@st.composite
def fixture_mutants(draw):
    """A shipped document with one to three token replacements, deletions
    or insertions, the new tokens drawn from the same document."""
    lines = [line.split(" ")
             for line in draw(st.sampled_from(FIXTURE_TEXTS)).split("\n")]
    pool = sorted({t for line in lines for t in line if t})
    for _ in range(draw(st.integers(1, 3))):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        kind = draw(st.sampled_from("rdi"))
        filled = [j for j, t in enumerate(line) if t]
        if kind == "i" or not filled:
            line.insert(draw(st.integers(0, len(line))),
                        draw(st.sampled_from(pool)))
        elif kind == "r":
            line[draw(st.sampled_from(filled))] = draw(st.sampled_from(pool))
        else:
            del line[draw(st.sampled_from(filled))]
    return "\n".join(" ".join(line) for line in lines)


def seeded_mutant(seed, keep_indent):
    """`fixture_mutants` drawn from a seeded generator; with keep_indent no
    token is inserted before a line's first token, so most mutants parse
    and reach elaboration."""
    rng = random.Random(seed)
    lines = [line.split(" ") for line in rng.choice(FIXTURE_TEXTS).split("\n")]
    pool = sorted({t for line in lines for t in line if t})
    for _ in range(rng.randint(1, 3)):
        line = rng.choice(lines)
        kind = rng.choice("rdi")
        filled = [j for j, t in enumerate(line) if t]
        lo = filled[0] if keep_indent and filled else 0
        if kind == "i" or not filled:
            line.insert(rng.randint(lo, len(line)), rng.choice(pool))
        elif kind == "r":
            line[rng.choice(filled)] = rng.choice(pool)
        else:
            del line[rng.choice(filled)]
    return "\n".join(" ".join(line) for line in lines)


# sha256 of every diagnostic (code, line, column, text) and the elaborated
# block names of 2,400 seeded mutants, taken before the rejection sites of
# the elaborator went through one helper
MUTANT_DIAGNOSTICS_DIGEST = (
    "933067b013b0eec2c0bf081e99fef75fdbe9a8186eb74911aeebd52aeb7f38bd")


def test_mutant_diagnostics_unchanged():
    rows = []
    for seed in range(2400):
        ast, diags = dsl.parse(seeded_mutant(seed, seed >= 1200))
        names = []
        if ast is not None:
            objects, ediags = dsl.elaborate(ast)
            diags, names = diags + ediags, list(objects)
        rows.append(repr(([(d.code, d.line, d.col, d.message)
                           for d in diags], names)))
    text = "\n".join(rows) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        MUTANT_DIAGNOSTICS_DIGEST)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fixture_mutants())
def test_mutated_fixtures_only_give_diagnostics(text):
    ast, diags = dsl.parse(text)
    assert all(isinstance(d, dsl.Diagnostic) for d in diags)
    if ast is not None:
        _, diags = dsl.elaborate(ast)
        assert all(isinstance(d, dsl.Diagnostic) for d in diags)


def test_fixture_generator_reproduces_the_fixtures(docs_dir, tmp_path,
                                                   monkeypatch):
    import gen_docs

    monkeypatch.setattr(gen_docs, "OUT", tmp_path)
    gen_docs.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in docs_dir.glob("*.mcat"))
    assert len(written) == 12
    for name in written:
        assert (tmp_path / name).read_bytes() == (
            docs_dir / name).read_bytes(), name
