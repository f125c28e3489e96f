"""Rule implementations for imc-analyze.

Every rule machine-checks one invariant the benchmark suite's contracts
(byte-identical stdout at any IMC_THREADS, schedule-invariant digests,
leak-free teardown) depend on. DESIGN.md §12 catalogues what each one
protects; tests/analyze/fixtures/ pins what each one flags and passes.

A rule is a function (ctx) -> [Finding]; the registry maps rule ids to
(function, hint, path predicate). Path predicates scope rules to where the
invariant actually holds — e.g. raw-exit-in-library only applies under
src/ (benches and examples are entry points and may die), and
discarded-result skips tests/ (tests exercise failure paths on purpose).
"""

import os
from dataclasses import dataclass

from analyze.tokens import ID, PUNCT


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    hint: str

    def location(self):
        return f"{self.path}:{self.line}"


class Context:
    """Per-file state shared by the rules."""

    def __init__(self, path, stream, raw_lines):
        self.path = path
        self.stream = stream
        self.raw_lines = raw_lines
        parts = os.path.normpath(path).split(os.sep)
        self.parts = parts
        # Top-level tree this file belongs to (src/bench/tests/examples).
        self.tree = next((p for p in parts
                          if p in ("src", "bench", "tests", "examples")),
                         "other")

    def in_dir(self, *names):
        return any(n in self.parts for n in names)

    def basename(self):
        return self.parts[-1]


# ---------------------------------------------------------------------------
# Shared token helpers
# ---------------------------------------------------------------------------

def _is_free_call(ts, i, allow_std=True):
    """True if the ID at i is called as a free function: `name(`, optionally
    `std::name(`, but not `obj.name(`, `obj->name(`, or `other::name(`."""
    toks = ts.tokens
    nx = ts.next_code(i)
    if nx is None or toks[nx].text != "(":
        return False
    pv = ts.prev_code(i)
    if pv is None:
        return True
    pt = toks[pv].text
    if pt in (".", "->"):
        return False
    if pt == "::":
        qual = ts.prev_code(pv)
        qual_name = toks[qual].text if qual is not None else ""
        return allow_std and qual_name in ("std", "")
    return True


def _qualifier(ts, i):
    """Name of the `ns` in `ns::tok` for the token at i, or ''. Walks one
    level only — enough to tell audit::global from trace::global."""
    pv = ts.prev_code(i)
    if pv is None or ts.tokens[pv].text != "::":
        return ""
    q = ts.prev_code(pv)
    return ts.tokens[q].text if q is not None and ts.tokens[q].kind == ID \
        else ""


def _match_angle(ts, i):
    """From a `<` at index i, return the index of the matching `>`.

    Good enough for type contexts: tracks <, > and >> nesting, bails at `;`
    or `{` (then it was a comparison, not template args)."""
    toks = ts.tokens
    depth = 0
    j = i
    while j < len(toks):
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j
        elif t in (";", "{"):
            return None
        j += 1
    return None


def _body_after(ts, close_paren):
    """Loop/if body following a `)` at close_paren: (start, end) token range.

    A braced body spans its braces; a single-statement body runs to the next
    `;`. Returns None if neither is found."""
    toks = ts.tokens
    j = ts.next_code(close_paren)
    if j is None:
        return None
    if toks[j].text == "{":
        close = ts.match_brace(j)
        return (j, close) if close is not None else None
    while j < len(toks) and toks[j].text != ";":
        j += 1
    return (ts.next_code(close_paren), j)


def _range_contains_id(ts, start, end, names):
    return any(t.kind == ID and t.text in names
               for t in ts.tokens[start:end + 1])


# ---------------------------------------------------------------------------
# wall-clock — real time must never reach simulated code
# ---------------------------------------------------------------------------

_WALL_CLOCK_IDS = frozenset({
    "system_clock", "steady_clock", "high_resolution_clock",
})
_WALL_CLOCK_CALLS = frozenset({
    "time", "clock", "clock_gettime", "gettimeofday", "timespec_get",
    "ftime", "localtime", "gmtime",
})


def rule_wall_clock(ctx):
    ts = ctx.stream
    findings = []
    for i, tok in enumerate(ts.tokens):
        if tok.kind != ID or tok.preproc:
            continue
        if tok.text in _WALL_CLOCK_IDS and _qualifier(ts, i) == "chrono":
            findings.append(Finding(
                "wall-clock", ctx.path, tok.line,
                f"std::chrono::{tok.text} reads real time inside simulated "
                "code; timestamps and durations must come from "
                "sim::Engine::now()",
                "take a sim::Engine& and use engine.now() / engine.sleep()"))
        elif tok.text in _WALL_CLOCK_CALLS and _is_free_call(ts, i):
            findings.append(Finding(
                "wall-clock", ctx.path, tok.line,
                f"{tok.text}() reads the wall clock; simulated code must "
                "derive all times from sim::Engine::now() or run digests "
                "diverge between hosts and runs",
                "use engine.now(); for trace timestamps use the bound "
                "trace::Recorder"))
    return findings


# ---------------------------------------------------------------------------
# global-rng — all randomness flows through the seeded common/rng.h
# ---------------------------------------------------------------------------

_RNG_TYPES = frozenset({
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "default_random_engine", "knuth_b",
})
_RNG_CALLS = frozenset({"rand", "srand", "random", "srandom", "drand48",
                        "lrand48", "arc4random"})


def rule_global_rng(ctx):
    ts = ctx.stream
    findings = []
    for i, tok in enumerate(ts.tokens):
        if tok.kind != ID or tok.preproc:
            continue
        if tok.text in _RNG_TYPES:
            findings.append(Finding(
                "global-rng", ctx.path, tok.line,
                f"std::{tok.text} is seeded from process state; every "
                "stochastic choice must come from an explicitly seeded "
                "imc::Rng so runs replay byte-for-byte",
                "construct imc::Rng(seed) and draw from it"))
        elif tok.text in _RNG_CALLS and _is_free_call(ts, i):
            findings.append(Finding(
                "global-rng", ctx.path, tok.line,
                f"{tok.text}() uses hidden global RNG state, which breaks "
                "run-to-run reproducibility",
                "construct imc::Rng(seed) and draw from it"))
    return findings


# ---------------------------------------------------------------------------
# discarded-result — `(void)` on awaited or returned Status hides failures
# ---------------------------------------------------------------------------

def rule_discarded_result(ctx):
    ts = ctx.stream
    toks = ts.tokens
    findings = []
    for i, tok in enumerate(toks):
        if tok.kind != PUNCT or tok.text != "(" or tok.preproc:
            continue
        # A cast position: `f(void)` (a declaration's parameter list) has an
        # identifier before the `(`; `(void)expr` does not.
        pv = ts.prev_code(i)
        if pv is not None and (toks[pv].kind == ID
                               or toks[pv].text in (")", "]")):
            continue
        nx = ts.next_code(i)
        if nx is None or toks[nx].text != "void":
            continue
        close = ts.next_code(nx)
        if close is None or toks[close].text != ")":
            continue
        expr = ts.next_code(close)
        if expr is None:
            continue
        if toks[expr].text == "co_await":
            findings.append(Finding(
                "discarded-result", ctx.path, tok.line,
                "(void)co_await discards the awaited Status/Result; an "
                "injected fault or exhausted resource fails silently and "
                "the run's tables report work that never happened",
                "bind the result (`Status st = co_await ...`) and check "
                "st.is_ok(), or propagate with co_return"))
            continue
        # (void)call(...): a call whose result is thrown away. A bare
        # (void)name; (unused-variable silencing) is fine.
        j = expr
        has_call = False
        while j < len(toks) and toks[j].text != ";":
            if toks[j].text == "(":
                has_call = True
                end = ts.match_paren(j)
                if end is None:
                    break
                j = end
            j += 1
        if has_call:
            findings.append(Finding(
                "discarded-result", ctx.path, tok.line,
                "(void) on a call discards its Status/Result; failures "
                "vanish instead of reaching failure summaries",
                "check the returned status, or suppress with a comment "
                "explaining why the result is provably irrelevant"))
    return findings


# ---------------------------------------------------------------------------
# adhoc-retry — retrying outside fault::retry forks the backoff policy
# ---------------------------------------------------------------------------

_RETRY_MARKERS = ("attempt", "retry", "backoff")


def rule_adhoc_retry(ctx):
    ts = ctx.stream
    toks = ts.tokens
    findings = []
    for i, tok in enumerate(toks):
        if tok.kind != ID or tok.text not in ("for", "while") or tok.preproc:
            continue
        op = ts.next_code(i)
        if op is None or toks[op].text != "(":
            continue
        cp = ts.match_paren(op)
        if cp is None:
            continue
        header_has_marker = any(
            t.kind == ID and any(m in t.text.lower() for m in _RETRY_MARKERS)
            for t in toks[op:cp])
        if not header_has_marker:
            continue
        body = _body_after(ts, cp)
        if body is None:
            continue
        sleeps = any(t.kind == ID and t.text == "sleep"
                     and toks[min(k + 1, len(toks) - 1)].text == "("
                     for k, t in enumerate(toks[body[0]:body[1]],
                                           start=body[0]))
        if sleeps:
            findings.append(Finding(
                "adhoc-retry", ctx.path, tok.line,
                "hand-rolled retry loop (attempt counter + sleep) forks the "
                "backoff/jitter policy; attempts, timeouts and dropped ops "
                "must land in fault's accounting",
                "use fault::retry(engine, policy, op) or fault::ride_out"))
    return findings


# ---------------------------------------------------------------------------
# env-without-or-die — getenv bypasses validated, fail-fast env parsing
# ---------------------------------------------------------------------------

def rule_env_parse(ctx):
    ts = ctx.stream
    findings = []
    for i, tok in enumerate(ts.tokens):
        if tok.kind != ID or tok.preproc:
            continue
        if tok.text in ("getenv", "secure_getenv") and _is_free_call(ts, i):
            findings.append(Finding(
                "env-without-or-die", ctx.path, tok.line,
                f"raw {tok.text}() skips validation; a garbage knob value "
                "must terminate with a clear message, not be half-parsed "
                "into a silently different scenario",
                "use env::flag_or_die / int_or_die / double_or_die / "
                "str_or_die from common/env.h"))
    return findings


# ---------------------------------------------------------------------------
# raw-exit-in-library — library code reports Status; it never kills the host
# ---------------------------------------------------------------------------

_EXIT_CALLS = frozenset({"exit", "_exit", "_Exit", "quick_exit", "abort"})


def rule_raw_exit(ctx):
    ts = ctx.stream
    findings = []
    for i, tok in enumerate(ts.tokens):
        if tok.kind != ID or tok.preproc:
            continue
        flagged = (tok.text in _EXIT_CALLS and _is_free_call(ts, i)) or \
            (tok.text == "terminate" and _qualifier(ts, i) == "std"
             and _is_free_call(ts, i))
        if flagged:
            findings.append(Finding(
                "raw-exit-in-library", ctx.path, tok.line,
                f"{tok.text}() in library code kills the whole process — "
                "including the sweep pool's other worlds and any pending "
                "auditors/trace flushes",
                "return a Status (make_error) or record_failure on the "
                "engine; dying is reserved for entry points"))
    return findings


# ---------------------------------------------------------------------------
# unordered-iteration — hash-order loops must not feed observable output
# ---------------------------------------------------------------------------

_UNORDERED_TYPES = frozenset({
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
})

# Calls/objects through which a loop body becomes observable: output,
# logging, tracing, digests, or the event engine. Iterating an unordered
# container into any of these bakes allocator/hash history into results —
# the PR 4 reap_processes bug class.
_OBSERVABLE_SINKS = frozenset({
    # stdio / streams
    "printf", "fprintf", "puts", "fputs", "cout", "cerr", "clog",
    # logging
    "log_message", "write_log_output", "LogLine", "warn", "info", "error",
    "debug",
    # tracing / metrics
    "span", "counter", "gauge", "instant", "emit",
    # digests and hashes that end up in run fingerprints
    "digest", "note_event", "hash_combine", "splitmix64", "fingerprint",
    # the event engine: resume order becomes schedule order
    "schedule_at", "schedule_now", "spawn", "sleep", "record_failure",
})


def _collect_unordered_names(ts):
    """Identifiers declared (or assigned from) an unordered container."""
    toks = ts.tokens
    names = set()
    for i, tok in enumerate(toks):
        if tok.kind != ID or tok.text not in _UNORDERED_TYPES or tok.preproc:
            continue
        nx = ts.next_code(i)
        if nx is None or toks[nx].text != "<":
            continue
        close = _match_angle(ts, nx)
        if close is None:
            continue
        j = ts.next_code(close)
        # Skip refs/pointers/cv in the declarator.
        while j is not None and toks[j].text in ("&", "*", "const"):
            j = ts.next_code(j)
        if j is not None and toks[j].kind == ID:
            after = ts.next_code(j)
            # `name(` is a function declaration returning the container;
            # anything else (`;`, `=`, `{`, `,`) declares a variable.
            if after is not None and toks[after].text != "(":
                names.add(toks[j].text)
    # Propagate through `auto x = std::move(y);` / `auto x = y;`.
    for i, tok in enumerate(toks):
        if tok.kind != ID or tok.text != "auto" or tok.preproc:
            continue
        name_i = ts.next_code(i)
        if name_i is None or toks[name_i].kind != ID:
            continue
        eq = ts.next_code(name_i)
        if eq is None or toks[eq].text != "=":
            continue
        j = eq
        for _ in range(6):  # look a few tokens ahead: move ( y ) ;
            j = ts.next_code(j)
            if j is None or toks[j].text == ";":
                break
            if toks[j].kind == ID and toks[j].text in names:
                names.add(toks[name_i].text)
                break
    return names


def rule_unordered_iteration(ctx):
    ts = ctx.stream
    toks = ts.tokens
    names = _collect_unordered_names(ts)
    findings = []

    def check_body(body, line, what):
        lo, hi = body
        for k in range(lo, hi + 1):
            t = toks[k]
            if t.kind == ID and t.text in _OBSERVABLE_SINKS:
                findings.append(Finding(
                    "unordered-iteration", ctx.path, line,
                    f"loop over {what} iterates in hash/allocator order and "
                    f"its body reaches an observable sink ({t.text}); the "
                    "order leaks into output/digests and varies between "
                    "runs and hosts",
                    "snapshot the keys and sort them (the reap_processes "
                    "fix pattern), or use std::map"))
                return

    for i, tok in enumerate(toks):
        if tok.kind != ID or tok.text != "for" or tok.preproc:
            continue
        op = ts.next_code(i)
        if op is None or toks[op].text != "(":
            continue
        cp = ts.match_paren(op)
        if cp is None:
            continue
        header = toks[op + 1:cp]
        # Range-for: `for (decl : expr)` — find the top-level `:`.
        colon = next((k for k in range(op + 1, cp)
                      if toks[k].text == ":" and toks[k].kind == PUNCT), None)
        if colon is not None:
            if _range_contains_id(ts, colon, cp, names):
                body = _body_after(ts, cp)
                if body:
                    check_body(body, tok.line, "an unordered container")
            continue
        # Iterator loop: `X.begin()` / `X.cbegin()` over a known name.
        for k in range(op + 1, cp):
            if toks[k].kind == ID and toks[k].text in ("begin", "cbegin"):
                holder = ts.prev_code(k)
                if holder is not None and toks[holder].text in (".", "->"):
                    obj = ts.prev_code(holder)
                    if obj is not None and toks[obj].text in names:
                        body = _body_after(ts, cp)
                        if body:
                            check_body(body, tok.line,
                                       "an unordered container (iterator)")
                        break
        del header
    return findings


# ---------------------------------------------------------------------------
# scoped-binding — the world binding must be a named stack guard
# ---------------------------------------------------------------------------

# world::Scope is the one thread binding (DESIGN.md §16). Its accessors,
# with the qualifier that identifies them: an accessor call *before* the
# Scope exists in the same scope reads the enclosing world's binding.
_SCOPE = "Scope"
_SCOPE_ACCESSORS = (
    ("world", "current"),
    ("audit", "global"),
    ("trace", "global"),
    # `active` alone is matched for the fault injector; the replication
    # coordinator's is matched qualified-only.
    ("fault", "active"), ("", "active"),
    ("repl", "active"),
    ("arena", "current"),
    ("prof", "meter"),
)


def _inside_own_class(ts, i, name):
    """True if token i sits inside `class <name> { ... }` (its definition)."""
    open_i, _ = ts.enclosing_scope(i)
    while open_i is not None:
        j = ts.prev_code(open_i)
        # Walk back over a base-clause / class head to the class keyword.
        steps = 0
        while j is not None and steps < 8:
            if ts.tokens[j].text in ("class", "struct"):
                k = ts.next_code(j)
                if k is not None and ts.tokens[k].text == name:
                    return True
                break
            if ts.tokens[j].text in (";", "}", "{"):
                break
            j = ts.prev_code(j)
            steps += 1
        open_i, _ = ts.enclosing_scope(open_i)
    return False


def _is_accessor_call(ts, i, qual):
    """True if ID at i is called as `qual::name(` (or bare `name(` when no
    qualifier is expected). Member calls never match."""
    toks = ts.tokens
    nx = ts.next_code(i)
    if nx is None or toks[nx].text != "(":
        return False
    pv = ts.prev_code(i)
    pt = toks[pv].text if pv is not None else ""
    if qual:
        return _qualifier(ts, i) == qual
    return pt not in (".", "->", "::")


def rule_scoped_binding(ctx):
    ts = ctx.stream
    toks = ts.tokens
    findings = []
    for i, tok in enumerate(toks):
        if tok.kind != ID or tok.text != _SCOPE or tok.preproc or \
                _qualifier(ts, i) not in ("", "world"):
            continue
        pv = ts.prev_code(i)
        pt = toks[pv].text if pv is not None else ""
        nx = ts.next_code(i)
        nt = toks[nx].text if nx is not None else ""
        # Skip the declarations and definitions of Scope itself.
        if pt in ("explicit", "~", "class", "struct", "friend") or \
                nt in ("::", "&", "*") or \
                _inside_own_class(ts, i, tok.text):
            continue
        # Heap allocation: `new [world::]Scope...`.
        j = pv
        while j is not None and toks[j].text == "::":
            j = ts.prev_code(j)          # qualifier name
            j = ts.prev_code(j) if j is not None else None
        if j is not None and toks[j].text == "new":
            findings.append(Finding(
                "scoped-binding", ctx.path, tok.line,
                "heap-allocated world::Scope decouples the binding from the "
                "scope it is supposed to cover; a missed delete leaves the "
                "world bound forever",
                "declare a named stack guard: `world::Scope scope;`"))
            continue
        if nx is None:
            continue
        if toks[nx].kind == ID:
            # Named declaration — the good form. Check ordering: no
            # accessor may run earlier in this scope.
            open_i, _ = ts.enclosing_scope(i)
            lo = open_i if open_i is not None else 0
            for k in range(lo, i):
                t = toks[k]
                if t.kind != ID or t.preproc:
                    continue
                for qual, fn in _SCOPE_ACCESSORS:
                    if t.text == fn and _is_accessor_call(ts, k, qual):
                        findings.append(Finding(
                            "scoped-binding", ctx.path, tok.line,
                            "world::Scope is constructed after "
                            f"{t.text}() was already called in this scope "
                            f"(line {t.line}); the earlier call read the "
                            "previous world's binding",
                            "move the guard declaration above the first "
                            "use of its accessor in the scope"))
                        break
                else:
                    continue
                break
            continue
        if nt in ("(", "{"):
            close = ts.match_paren(nx) if nt == "(" else ts.match_brace(nx)
            if close is None:
                continue
            after = ts.next_code(close)
            at = toks[after].text if after is not None else ""
            # Statement context + `;` right after the close = a temporary
            # that binds and unbinds within one expression.
            stmt_prev = j if j is not None else pv
            sp = toks[stmt_prev].text if stmt_prev is not None else ";"
            if at == ";" and sp in (";", "{", "}", ")", ":"):
                # `public: Scope();` inside the class is handled above;
                # what is left is a real temporary statement.
                findings.append(Finding(
                    "scoped-binding", ctx.path, tok.line,
                    "temporary world::Scope binds and immediately unbinds "
                    "at the end of the full expression — the code that "
                    "follows runs against the previous binding",
                    "name it: `world::Scope scope;` so the guard lives to "
                    "the end of the scope"))
    return findings


# ---------------------------------------------------------------------------
# co-await-under-lock — suspending while holding a mutex stalls the pool
# ---------------------------------------------------------------------------

_LOCK_GUARDS = frozenset({
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
})


def rule_co_await_under_lock(ctx):
    ts = ctx.stream
    toks = ts.tokens
    findings = []
    for i, tok in enumerate(toks):
        if tok.kind != ID or tok.text not in _LOCK_GUARDS or tok.preproc:
            continue
        nx = ts.next_code(i)
        if nx is None:
            continue
        # Declaration: `lock_guard<...> name(...)` or CTAD `scoped_lock n(m)`.
        if toks[nx].text == "<":
            close = _match_angle(ts, nx)
            if close is None:
                continue
            name_i = ts.next_code(close)
        elif toks[nx].kind == ID:
            name_i = nx
        else:
            continue
        if name_i is None or toks[name_i].kind != ID:
            continue
        # End of the declaration statement.
        j = name_i
        while j < len(toks) and toks[j].text != ";":
            j += 1
        scope_end = ts.scope_end(i)
        for k in range(j, scope_end):
            t = toks[k]
            if t.kind == ID and t.text == "co_await" and not t.preproc:
                findings.append(Finding(
                    "co-await-under-lock", ctx.path, t.line,
                    f"co_await while holding a {tok.text} (declared line "
                    f"{tok.line}): the coroutine suspends with the mutex "
                    "held, blocking every sweep worker that touches it — "
                    "and resume may happen on a different thread, making "
                    "the unlock UB",
                    "copy what you need out of the locked region, release "
                    "the guard (scope it tightly), then await"))
                break
    return findings


# ---------------------------------------------------------------------------
# detached-coroutine-lifetime — frames must not outlive captured state
# ---------------------------------------------------------------------------

def _lambda_intro(ts, i):
    """If token i is a lambda-introducer `[`, return (capture_end_index,
    captures_tokens); else None."""
    toks = ts.tokens
    pv = ts.prev_code(i)
    if pv is not None and (toks[pv].kind == ID or toks[pv].text in (")", "]")):
        return None  # subscript, not a lambda introducer
    nx = ts.next_code(i)
    if nx is not None and toks[nx].text == "[":
        return None  # [[attribute]]
    depth = 0
    j = i
    while j < len(toks):
        if toks[j].text == "[":
            depth += 1
        elif toks[j].text == "]":
            depth -= 1
            if depth == 0:
                return j, toks[i + 1:j]
        j += 1
    return None


def _lambda_body(ts, capture_end):
    """Token range of the lambda body following its capture list."""
    toks = ts.tokens
    j = ts.next_code(capture_end)
    # Skip the parameter list if present.
    if j is not None and toks[j].text == "(":
        close = ts.match_paren(j)
        if close is None:
            return None
        j = ts.next_code(close)
    # Skip specifiers / trailing return type up to the body.
    hops = 0
    while j is not None and toks[j].text != "{" and hops < 24:
        if toks[j].text == ";":
            return None
        j = ts.next_code(j)
        hops += 1
    if j is None or toks[j].text != "{":
        return None
    close = ts.match_brace(j)
    return (j, close) if close is not None else None


def rule_detached_coroutine(ctx):
    ts = ctx.stream
    toks = ts.tokens
    findings = []
    for i, tok in enumerate(toks):
        if tok.kind != PUNCT or tok.text != "[" or tok.preproc:
            continue
        intro = _lambda_intro(ts, i)
        if intro is None:
            continue
        cap_end, captures = intro
        body = _lambda_body(ts, cap_end)
        if body is None:
            continue
        is_coroutine = any(t.kind == ID and
                           t.text in ("co_await", "co_return", "co_yield")
                           for t in toks[body[0]:body[1]])
        if not is_coroutine:
            continue
        has_ref_capture = any(t.text == "&" for t in captures)
        has_any_capture = len(captures) > 0
        if has_ref_capture:
            findings.append(Finding(
                "detached-coroutine-lifetime", ctx.path, tok.line,
                "coroutine lambda captures by reference; the frame "
                "suspends and outlives the enclosing scope, so the "
                "captured references dangle",
                "pass state as explicit coroutine parameters (copied into "
                "the frame) — `[](T& x) -> Task<> {...}(obj)` is the safe "
                "idiom; captures are not"))
            continue
        if has_any_capture:
            # Capturing lambda coroutine handed to spawn(): the lambda
            # object is a temporary, and coroutine rules do NOT copy the
            # closure into the frame — its captures dangle once spawn
            # returns.
            pv = ts.prev_code(i)
            k = pv
            hops = 0
            while k is not None and hops < 4:
                if toks[k].kind == ID and toks[k].text == "spawn":
                    findings.append(Finding(
                        "detached-coroutine-lifetime", ctx.path, tok.line,
                        "capturing lambda coroutine passed to spawn(): the "
                        "closure object is a temporary and the coroutine "
                        "frame references it after destruction (captures "
                        "are not copied into the frame)",
                        "use a capture-free lambda with explicit "
                        "parameters: engine.spawn([](T& x) -> Task<> "
                        "{...}(obj))"))
                    break
                k = ts.prev_code(k)
                hops += 1
    return findings


# ---------------------------------------------------------------------------
# coroutine-miscompile — two co_await forms GCC 12 compiles wrongly
# ---------------------------------------------------------------------------

# Standard class types whose braced temporaries have non-trivial
# destructors. Project types are recognised by their CamelCase names.
_STD_CLASSES = frozenset({
    "string", "vector", "map", "set", "deque", "list", "function",
    "optional", "variant", "shared_ptr", "unique_ptr", "pair", "tuple",
})


def _bracket_depth_step(tok, depth):
    """New bracket depth after tok, or None when tok closes a bracket that
    opened before the scan (the enclosing expression ends there)."""
    if tok.kind != PUNCT:
        return depth
    if tok.text in ("(", "[", "{"):
        return depth + 1
    if tok.text in (")", "]", "}"):
        return depth - 1 if depth > 0 else None
    return depth


def _conditional_end(ts, q):
    """Index just past the third operand of the conditional whose `?` is at
    q: the `;`, `,` or unmatched `:`/closing bracket that ends it."""
    toks = ts.tokens
    depth, pending = 0, 1
    j = ts.next_code(q)
    while j is not None:
        tok = toks[j]
        depth = _bracket_depth_step(tok, depth)
        if depth is None:
            return j
        if depth == 0 and tok.kind == PUNCT:
            if tok.text == "?":
                pending += 1
            elif tok.text == ":":
                if pending == 0:
                    return j
                pending -= 1
            elif tok.text in (";", ","):
                return j
        j = ts.next_code(j)
    return len(toks)


def _co_await_operand_end(ts, i):
    """Index just past the operand of the co_await at i."""
    toks = ts.tokens
    depth = 0
    j = ts.next_code(i)
    while j is not None:
        tok = toks[j]
        depth = _bracket_depth_step(tok, depth)
        if depth is None or (depth == 0 and tok.kind == PUNCT
                             and tok.text in (";", ",", "?", ":")):
            return j
        j = ts.next_code(j)
    return len(toks)


def _braced_class_temporary(ts, brace):
    """Type name if the `{` at brace opens a braced temporary of class type
    (`T{`, `ns::T{`, `T<...>{`), else None. Lambda bodies (`) {`,
    `-> R {`, `mutable {`) and plain init-lists do not match."""
    toks = ts.tokens
    j = ts.prev_code(brace)
    if j is not None and toks[j].text in (">", ">>"):
        depth = 0
        while j is not None:
            t = toks[j].text
            depth += {">": 1, ">>": 2, "<": -1}.get(t, 0)
            if t == "<" and depth == 0:
                break
            if t in (";", "{", "}", "(", ")"):
                return None
            j = ts.prev_code(j)
        j = ts.prev_code(j) if j is not None else None
    if j is None or toks[j].kind != ID:
        return None
    before = ts.prev_code(j)
    if before is not None and toks[before].text == "->":
        return None  # a lambda's trailing return type
    name = toks[j].text
    if name[0].isupper() or (_qualifier(ts, j) == "std"
                             and name in _STD_CLASSES):
        return name
    return None


def rule_coroutine_miscompile(ctx):
    ts = ctx.stream
    toks = ts.tokens
    findings = []
    for i, tok in enumerate(toks):
        if tok.preproc:
            continue
        if tok.kind == PUNCT and tok.text == "?":
            end = _conditional_end(ts, i)
            hit = next((k for k in range(i + 1, end)
                        if toks[k].kind == ID and toks[k].text == "co_await"
                        and not toks[k].preproc), None)
            if hit is not None:
                findings.append(Finding(
                    "coroutine-miscompile", ctx.path, toks[hit].line,
                    "co_await inside a conditional operator: GCC 12 "
                    "miscompiles the suspension (the Flexpath worlds "
                    "aborted with free(): invalid pointer)",
                    "await into a local in an if/else, then use the "
                    "local"))
        elif tok.kind == ID and tok.text == "co_await":
            end = _co_await_operand_end(ts, i)
            parens = 0
            k = i + 1
            while k < end:
                t = toks[k]
                if t.kind == PUNCT and t.text == "(":
                    parens += 1
                elif t.kind == PUNCT and t.text == ")":
                    parens -= 1
                elif t.kind == PUNCT and t.text == "{":
                    name = _braced_class_temporary(ts, k) if parens else None
                    if name is not None:
                        findings.append(Finding(
                            "coroutine-miscompile", ctx.path, t.line,
                            f"braced temporary {name}{{...}} in the "
                            "arguments of a co_await'ed call: GCC 12 "
                            "destroys it wrongly across the suspension "
                            "(free(): invalid pointer)",
                            "bind the argument to a named local before "
                            "the co_await"))
                        break
                    # Lambda bodies and init-lists: skip their contents.
                    k = ts.match_brace(k) or k
                k += 1
    return findings


# ---------------------------------------------------------------------------
# Line rules — whitespace style, checked on the raw text
# ---------------------------------------------------------------------------

def rule_tab_indent(ctx):
    return [Finding("tab-indent", ctx.path, n, "tab character",
                    "indent with spaces")
            for n, line in enumerate(ctx.raw_lines, start=1)
            if "\t" in line.rstrip("\r")]


def rule_trailing_whitespace(ctx):
    return [Finding("trailing-whitespace", ctx.path, n,
                    "whitespace before end of line",
                    "delete the trailing spaces or tabs")
            for n, line in enumerate(ctx.raw_lines, start=1)
            if line.rstrip("\r") != line.rstrip("\r").rstrip()]


def rule_crlf(ctx):
    for n, line in enumerate(ctx.raw_lines, start=1):
        if "\r" in line:
            return [Finding("crlf", ctx.path, n, "carriage return found",
                            "save the file with LF line endings")]
    return []


def rule_missing_final_newline(ctx):
    if ctx.raw_lines[-1] == "":
        return []
    return [Finding("missing-final-newline", ctx.path, len(ctx.raw_lines),
                    "file must end with a newline",
                    "add a newline after the last line")]


# ---------------------------------------------------------------------------
# Registry and path scoping
# ---------------------------------------------------------------------------

def _everywhere(ctx):
    return True


def _not_fault_layer(ctx):
    return not ctx.in_dir("fault")


def _not_prof_layer(ctx):
    # src/prof/ is the designated wall-clock exception: imc::prof measures
    # the harness itself (pool waits, flush costs) and is strictly
    # digest-excluded, so real-time reads there cannot reach any contract.
    # Everywhere else the rule stands.
    return not ctx.in_dir("prof")


def _not_env_impl(ctx):
    return ctx.basename() not in ("env.cpp", "env.h")


def _library_only(ctx):
    return ctx.tree == "src"


def _not_tests(ctx):
    return ctx.tree != "tests"


# rule id -> (function, applies predicate, short description)
RULES = {
    "unordered-iteration": (
        rule_unordered_iteration, _everywhere,
        "hash-order iteration feeding output/digests/scheduling"),
    "wall-clock": (
        rule_wall_clock, _not_prof_layer,
        "real-time clocks in simulated code (src/prof/ is exempt)"),
    "global-rng": (
        rule_global_rng, _everywhere,
        "unseeded/global randomness"),
    "scoped-binding": (
        rule_scoped_binding, _everywhere,
        "world::Scope must be a named stack object bound before use"),
    "adhoc-retry": (
        rule_adhoc_retry, _not_fault_layer,
        "hand-rolled retry loops outside fault::retry"),
    "env-without-or-die": (
        rule_env_parse, _not_env_impl,
        "raw getenv instead of env::*_or_die"),
    "raw-exit-in-library": (
        rule_raw_exit, _library_only,
        "exit/abort/terminate in library code"),
    "co-await-under-lock": (
        rule_co_await_under_lock, _everywhere,
        "suspension points while holding a mutex guard"),
    "detached-coroutine-lifetime": (
        rule_detached_coroutine, _everywhere,
        "coroutine frames outliving captured state"),
    "discarded-result": (
        rule_discarded_result, _not_tests,
        "(void)-discarded Status/Result"),
    "coroutine-miscompile": (
        rule_coroutine_miscompile, _everywhere,
        "co_await forms GCC 12 miscompiles (in ?:, braced temporary args)"),
    "tab-indent": (
        rule_tab_indent, _everywhere,
        "tab characters in a source line"),
    "trailing-whitespace": (
        rule_trailing_whitespace, _everywhere,
        "spaces or tabs before the end of a line"),
    "crlf": (
        rule_crlf, _everywhere,
        "Windows line endings"),
    "missing-final-newline": (
        rule_missing_final_newline, _everywhere,
        "file does not end with a newline"),
}

# Whitespace rules read only the raw lines. They also run on the fixture
# corpus, which every other rule skips: deliberately bad semantics still
# follow the style rules.
LINE_RULES = frozenset({"tab-indent", "trailing-whitespace", "crlf",
                        "missing-final-newline"})
