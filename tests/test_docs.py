"""The docs drift gate (tools/check_docs.py).

Two halves: the repo's own docs must pass the gate (the same check the
CI lint job runs), and each of the checks must demonstrably
*fire* on an injected violation — a gate that cannot fail is not a
gate.  The tool is loaded from its file path (tools/ is not a package)
and pointed at synthetic repo trees via its module-level ``ROOT``.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


# ---------------------------------------------------------------------------
# The real repo passes the gate


def test_repo_docs_pass_the_gate(capsys):
    assert check_docs.main() == 0
    assert "ok" in capsys.readouterr().out


def test_every_doc_is_linked_from_readme():
    errors = []
    check_docs.check_readme_coverage(errors)
    assert errors == []


def test_all_relative_links_resolve():
    errors = []
    check_docs.check_relative_links(errors)
    assert errors == []


def test_docs_name_only_real_subcommands():
    errors = []
    check_docs.check_cli_drift(errors)
    assert errors == []


def test_cli_parse_finds_the_known_subcommands():
    subs = check_docs.cli_subcommands()
    assert {"run", "lifetime", "traffic", "conformance", "serve",
            "loadgen"} <= subs


# ---------------------------------------------------------------------------
# Each check fires on an injected violation


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    """A minimal tree the checker accepts, retargeted via ROOT."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cli.py").write_text(
        'def build(sub):\n'
        '    run = sub.add_parser("run", help="x")\n'
        '    run.add_argument("--trials")\n'
        '    run.add_argument("--color", action=argparse.BooleanOptionalAction)\n'
        '    sub.add_parser("traffic", help="x")\n'
    )
    (tmp_path / "docs" / "guide.md").write_text(
        "# Guide\n\n```bash\nrepro-ft run --trials 2\n```\n"
    )
    (tmp_path / "README.md").write_text(
        "# Readme\n\nSee [the guide](docs/guide.md).\n"
    )
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    return tmp_path


def _all_errors():
    errors = []
    check_docs.check_readme_coverage(errors)
    check_docs.check_relative_links(errors)
    check_docs.check_cli_drift(errors)
    return errors


def test_fake_repo_baseline_is_clean(fake_repo):
    assert _all_errors() == []


def test_unlinked_doc_fires(fake_repo):
    (fake_repo / "docs" / "orphan.md").write_text("# Orphan\n")
    errors = _all_errors()
    assert any("orphan.md" in e and "does not link" in e for e in errors)


def test_broken_link_fires(fake_repo):
    (fake_repo / "docs" / "guide.md").write_text(
        "# Guide\n\nSee [gone](missing.md).\n"
    )
    errors = _all_errors()
    assert any("broken link" in e and "missing.md" in e for e in errors)


def test_stale_subcommand_fires(fake_repo):
    (fake_repo / "docs" / "guide.md").write_text(
        "# Guide\n\nRun `repro-ft frobnicate --now`.\n"
    )
    errors = _all_errors()
    assert any("frobnicate" in e for e in errors)


def test_stale_flag_fires(fake_repo):
    (fake_repo / "docs" / "guide.md").write_text(
        "# Guide\n\n```bash\nrepro-ft run --trials 2 --no-color \\\n"
        "    --shards 4   # --comment-flag\n```\n\n"
        "Pass `--turbo` to go faster, or `--color`.\n"
    )
    errors = _all_errors()
    stale = {flag for flag in ("--shards", "--turbo", "--no-color", "--color",
                               "--trials", "--comment-flag")
             if any(f"`{flag}`" in e for e in errors)}
    assert stale == {"--shards", "--turbo"}


def test_readme_fragment_links_resolve_to_the_file(fake_repo):
    (fake_repo / "README.md").write_text(
        "# Readme\n\nSee [the guide](docs/guide.md#patterns).\n"
    )
    assert _all_errors() == []


# ---------------------------------------------------------------------------
# Invocation-parsing unit behaviour


def test_global_option_with_value_is_skipped():
    got = check_docs.invoked_subcommands("repro-ft --log-level info serve")
    assert got == {"serve"}


def test_bare_version_flag_yields_nothing():
    assert check_docs.invoked_subcommands("repro-ft --version") == set()


def test_trailing_comment_is_ignored():
    got = check_docs.invoked_subcommands(
        "repro-ft --version   # version of the checkout"
    )
    assert got == set()


def test_subcommand_before_options():
    got = check_docs.invoked_subcommands(
        "repro-ft traffic --router adaptive --qos-classes 2"
    )
    assert got == {"traffic"}


def test_prose_mentions_do_not_count(tmp_path):
    doc = tmp_path / "x.md"
    doc.write_text(
        "the `repro-ft` console script is nice\n\n"
        "but `repro-ft run --trials 2` is code\n"
    )
    got = check_docs.invoked_subcommands(check_docs.code_text(doc))
    assert got == {"run"}
