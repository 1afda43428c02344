"""Tests for repro.lint: each checker against a true-positive fixture
and a near-miss fixture, inline suppressions, the CLI
exit-code contract and the repo-is-clean gate."""

import textwrap

import pytest

from repro.lint.__main__ import main as lint_main
from repro.lint.core import load_project, repo_root, run_checkers
from repro.sim import Engine, SimError


def run_fixture(tmp_path, files, rules=None):
    """Materialize ``files`` (relpath -> source) under ``tmp_path`` and
    run (a subset of) the checkers; returns (findings, suppressed)."""
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    project = load_project(tmp_path)
    return run_checkers(project, only=rules)


# One determinism finding: a wall-clock read in a simulated package.
CLOCK_READ = "import time\n\n\ndef stamp():\n    return time.time()\n"


def rules_of(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# coroutine-discipline
# ----------------------------------------------------------------------
def test_coroutine_discipline_flags_discarded_call(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            def work(core):
                yield 10

            def driver(core):
                work(core)
                yield 0
        """,
    }, rules=["coroutine-discipline"])
    assert rules_of(findings) == ["coroutine-discipline"]
    assert "yield from" in findings[0].message
    assert findings[0].line == 6


def test_coroutine_discipline_flags_discarded_delay(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            from repro.sim import Delay

            def syscall(core) -> Delay:
                return 10

            def driver(core):
                syscall(core)
                yield syscall(core)
        """,
    }, rules=["coroutine-discipline"])
    assert rules_of(findings) == ["coroutine-discipline"]
    assert findings[0].line == 8


def test_coroutine_discipline_near_misses_are_clean(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            def work(core):
                yield 10

            def driver(core, engine):
                yield from work(core)      # driven
                g = work(core)             # kept
                engine.spawn(work(core))   # handed off
                return g
        """,
    }, rules=["coroutine-discipline"])
    assert findings == []


def test_coroutine_discipline_skips_ambiguous_names(tmp_path):
    # Two defs share the name; one is not a generator, so a call site
    # cannot be resolved safely and must not be flagged.
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/a.py": """
            def work(core):
                yield 10
        """,
        "src/repro/sim/b.py": """
            def work(core):
                return 10

            def driver(core):
                work(core)
                yield 0
        """,
    }, rules=["coroutine-discipline"])
    assert findings == []


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_determinism_flags_entropy_in_sim_packages(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/sim/d.py": """
            import random
            import time

            def bad(name, xs, a, b):
                t = time.time()
                r = random.random()
                rng = random.Random()
                seed = hash(name)
                xs.sort(key=id)
                return id(a) < id(b), t, r, rng, seed
        """,
    }, rules=["determinism"])
    messages = " | ".join(f.message for f in findings)
    # seven sites: both operands of the id() comparison are flagged
    assert len(findings) == 7
    assert "wall-clock" in messages
    assert "process-global" in messages
    assert "without a seed" in messages
    assert "PYTHONHASHSEED" in messages
    assert "sort key" in messages
    assert "ordering comparison" in messages


def test_determinism_ignores_out_of_scope_and_seeded(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        # repro.bench is not a simulated package: wall-clock is fine.
        "src/repro/bench/d.py": """
            import time

            def harness():
                return time.time()
        """,
        # Seeded RNGs and equality (not ordering) on id() are fine.
        "src/repro/sim/ok.py": """
            import random

            def good(a, b):
                rng = random.Random(42)
                return rng, id(a) == id(b)
        """,
    }, rules=["determinism"])
    assert findings == []


# ----------------------------------------------------------------------
# rpc-conformance
# ----------------------------------------------------------------------
_RPC_OK = {
    "src/repro/fs/ninep.py": """
        class Topen:
            pass

        class Tread:
            pass
    """,
    "src/repro/fs/proxy.py": """
        def handle(msg):
            if isinstance(msg, Topen):
                return 1
            if isinstance(msg, Tread):
                return 2
    """,
    "src/repro/fs/stub.py": """
        def emit():
            return Topen(), Tread()
    """,
}


_NET_OK = {
    "src/repro/net/packets.py": """
        class NetConnect:
            pass

        class NetSend:
            pass
    """,
    "src/repro/net/service.py": """
        def dispatch(msg):
            if isinstance(msg, NetConnect):
                return 1
            if isinstance(msg, NetSend):
                return 2
    """,
    "src/repro/net/socket_api.py": """
        def emit(rpc, ring, core):
            rpc.call(core, "net", NetConnect())
            ring.send(core, NetSend())
    """,
}


def test_rpc_conformance_clean_registry(tmp_path):
    findings, _ = run_fixture(tmp_path, {**_RPC_OK, **_NET_OK},
                              rules=["rpc-conformance"])
    assert findings == []


def test_rpc_conformance_flags_unhandled_and_unemitted_opcode(tmp_path):
    files = dict(_RPC_OK)
    files["src/repro/fs/ninep.py"] = """
        class Topen:
            pass

        class Tread:
            pass

        class Tstat:
            pass
    """
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("no proxy-side isinstance handler" in m for m in messages)
    assert any("never emitted" in m for m in messages)


@pytest.mark.parametrize("files,handler,dup", [
    pytest.param(_RPC_OK, "src/repro/fs/proxy.py", "Topen", id="9p"),
    pytest.param(_NET_OK, "src/repro/net/service.py", "NetSend", id="net"),
])
def test_rpc_conformance_flags_duplicate_handler(tmp_path, files, handler, dup):
    files = dict(files)
    files[handler] += f"""
        def handle_again(msg):
            if isinstance(msg, {dup}):
                return 3
    """
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    assert len(findings) == 1
    assert f"opcode {dup} dispatched by 2 proxy branches" in findings[0].message


def test_rpc_conformance_net_op_sets_must_agree(tmp_path):
    """Net messages follow the 9P rule: an emitted message with no
    service branch and a handled one that nothing emits are flagged."""
    files = dict(_NET_OK)
    files["src/repro/net/packets.py"] += """
        class NetPing:
            pass

        class NetShutdown:
            pass
    """
    files["src/repro/net/socket_api.py"] += """
        def ping(ring, core):
            ring.send(core, NetPing())
    """
    files["src/repro/net/service.py"] += """
        def dispatch_more(msg):
            if isinstance(msg, NetShutdown):
                return 3
    """
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "opcode NetPing has no proxy-side isinstance handler" in messages[0]
    assert "opcode NetShutdown is never emitted" in messages[1]


def test_rpc_conformance_flags_a_protocol_module_with_no_message_class(tmp_path):
    """Records built by a factory call declare no ``class``: the rule
    reports that, rather than passing with nothing to check."""
    files = dict(_RPC_OK)
    files["src/repro/fs/ninep.py"] = """
        from collections import namedtuple

        Topen = namedtuple("Topen", "path flags")
        Tread = namedtuple("Tread", "fid offset count")
    """
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/fs/ninep.py"
    assert "no T* message class declared" in findings[0].message


@pytest.mark.parametrize("missing", [
    "src/repro/fs/ninep.py", "src/repro/fs/proxy.py",
])
def test_rpc_conformance_flags_a_missing_protocol_module(tmp_path, missing):
    files = {k: v for k, v in _RPC_OK.items() if k != missing}
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    assert len(findings) == 1
    assert f"protocol module {missing[len('src/repro/'):]} not found" in (
        findings[0].message
    )


def test_rpc_conformance_expects_both_protocols_in_the_repro_package(tmp_path):
    """With the ``repro`` package present, a protocol whose modules are
    both gone (moved or renamed) is a finding per module."""
    files = {**_RPC_OK, "src/repro/__init__.py": ""}
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    messages = sorted(f.message for f in findings)
    assert len(messages) == 2
    assert "protocol module net/packets.py not found" in messages[0]
    assert "protocol module net/service.py not found" in messages[1]
    files.update(_NET_OK)
    findings, _ = run_fixture(tmp_path, files, rules=["rpc-conformance"])
    assert findings == []


# ----------------------------------------------------------------------
# lock-phase
# ----------------------------------------------------------------------
def test_lock_phase_flags_leaked_and_unmatched(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def leaks(core, lock):
                yield from lock.acquire(core)
                yield 1

            def unmatched(core, lock):
                yield from lock.release(core)
        """,
    }, rules=["lock-phase"])
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "acquired but never released" in messages[0]
    assert "without a matching acquire" in messages[1]


def test_lock_phase_flags_bad_nesting(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def interleaved(core, a, b):
                yield from a.acquire(core)
                yield from b.acquire(core)
                yield from a.release(core)
                yield from b.release(core)
        """,
    }, rules=["lock-phase"])
    assert any("not well-nested" in f.message for f in findings)


def test_lock_phase_well_nested_try_finally_is_clean(tmp_path):
    findings, _ = run_fixture(tmp_path, {
        "src/repro/transport/use.py": """
            def good(core, lock, resource):
                yield from lock.acquire(core)
                try:
                    yield 5
                finally:
                    yield from lock.release(core)
                yield resource.request()
                try:
                    yield 5
                finally:
                    resource.release()
        """,
    }, rules=["lock-phase"])
    assert findings == []


# ----------------------------------------------------------------------
# Inline suppressions
# ----------------------------------------------------------------------
def test_inline_allow_suppresses_finding(tmp_path):
    findings, suppressed = run_fixture(tmp_path, {
        "src/repro/sim/fix.py": """
            def work(core):
                yield 10

            def driver(core):
                work(core)  # lint: allow(coroutine-discipline)
                yield 0
        """,
    }, rules=["coroutine-discipline"])
    assert findings == [] and suppressed == 1


def test_file_level_allow_suppresses_whole_file(tmp_path):
    findings, suppressed = run_fixture(tmp_path, {
        "src/repro/sim/x.py": """
            # lint: allow-file(determinism)
            import time

            def stamps():
                return time.time(), time.monotonic()
        """,
    }, rules=["determinism"])
    assert findings == [] and suppressed == 2


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_exits_nonzero_on_true_positive(tmp_path, capsys):
    p = tmp_path / "src/repro/sim/fix.py"
    p.parent.mkdir(parents=True)
    p.write_text(textwrap.dedent("""
        def work(core):
            yield 10

        def driver(core):
            work(core)
            yield 0
    """))
    assert lint_main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "coroutine-discipline" in out


def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    p = tmp_path / "src/repro/sim/fix.py"
    p.parent.mkdir(parents=True)
    p.write_text("def work(core):\n    yield 10\n")
    assert lint_main(["--root", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    p = tmp_path / "src/repro/sim/x.py"
    p.parent.mkdir(parents=True)
    p.write_text(CLOCK_READ)
    assert lint_main(["--root", str(tmp_path), "--json"]) == 1
    out = capsys.readouterr().out
    assert '"determinism"' in out


def test_repo_is_clean(capsys):
    """The committed tree must pass its own gate (the CI contract),
    with no finding suppressed inline."""
    assert lint_main(["--root", str(repo_root())]) == 0
    assert ", 0 suppressed," in capsys.readouterr().out


# ----------------------------------------------------------------------
# Engine diagnostic for discarded coroutines
# ----------------------------------------------------------------------
def test_engine_diagnoses_bare_yield_of_generator():
    def inner():
        yield 10

    def outer():
        yield inner()  # should be 'yield from'

    eng = Engine()
    with pytest.raises(SimError, match="yield from"):
        eng.run_process(outer())
