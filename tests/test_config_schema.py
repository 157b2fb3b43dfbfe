"""The config table ``cli.KEYS`` against the shipped configs and the README.

For every key a shipped config sets, at the top level or nested, the invalid
values come from the key's row of the table: a value of another type, one
below its least value or length, one outside its closed set, a list longer
than the command takes, a value over its budget, and a key that its object
(or the object's kind) does not read.  Each runs in process through
``cli.main``: it must exit 2, name its key in the message and write nothing;
no run may exit 3 or raise.  A hypothesis test draws further values of a
wrong type, or out of range, with a fixed seed.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from dbarl2 import cli
from dbarl2.cli import KEYS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}

# a value of each JSON type; the types a row does not take give its wrong-type values
SAMPLES = {"int": [-1, 3], "number": [0.5], "text": ["x", "(("], "list": [[]],
           "pair": [[0, 0]], "object": [{}], "none": [None], "bool": [True]}
# the types of SAMPLES each row type takes (a pair is a list of two)
TAKES = {"int": {"int"}, "number": {"int", "number"}, "text": {"text"},
         "list": {"list", "pair"}, "pair": {"list", "pair"}, "object": {"object"}}


def _walk(value, path=()):
    """(path, value) for the value and each key and entry nested in it."""
    yield path, value
    items = value.items() if type(value) is dict else \
        enumerate(value) if type(value) is list else ()
    for k, v in items:
        yield from _walk(v, path + (k,))


def _key(path) -> str:
    """The row of KEYS that checks the value at path."""
    return "".join("[]" if type(p) is int else f".{p}" for p in path).lstrip(".")


def _shown(path) -> str:
    """The path as a refusal names it."""
    return "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path).lstrip(".")


def _set(config, path, value):
    """A copy of config with the value at path replaced."""
    if not path:
        return value
    config = json.loads(json.dumps(config))
    node = config
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value
    return config


def _invalid(key, value, command):
    """(value, key named) pairs the row refuses: each type it does not take, a
    value below its range or outside its closed set, a list longer than the
    command takes, one over its budget, and an object with a key it does not
    read: support_radius, a misspelt key, or one of another command or kind."""
    rule = KEYS[key]
    out = [v for kind, vs in SAMPLES.items() if kind not in TAKES[rule.type] for v in vs
           if v not in rule.choices]
    out += [math.inf] if rule.type == "number" else []
    out += [[0], [0, 0, 0]] if rule.type == "pair" else []
    out += ["bogus" if rule.choices else "(("] if rule.type == "text" else []
    if rule.lo is not None:
        out.append([] if rule.type == "list" else
                   rule.lo if rule.strict else rule.lo - (1 if rule.type == "int" else 0.5))
    if rule.hi and command in rule.hi:
        out.append(value * (rule.hi[command] + 1))
    if rule.work and (type(rule.budget) is not dict or command in rule.budget):
        out.append(10 ** 6)
    out = [(v, ()) for v in out]
    if rule.type == "object":
        pre = key + "." if key else ""
        kind = value.get("kind", KEYS[pre + "kind"].default) if pre + "kind" in KEYS else None
        unread = [k[len(pre):] for k, r in KEYS.items() if k.startswith(pre)
                  and k[len(pre):].isidentifier() and r.by and not {command, kind} & {*r.by}]
        out += [(dict(value, **{name: 1}), (name,))
                for name in unread + ["support_radius", "grid_rez"]]
    return out


CASES = [(command, path, bad, path + named) for command, config in CONFIGS.items()
         for path, value in _walk(config)
         for bad, named in _invalid(_key(path), value, command)]


def _run(command, payload, tmp):
    cfg, out = tmp / "config.json", tmp / "out"
    cfg.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists() or not any(out.iterdir())
    return code, err.getvalue()


def test_every_shipped_key_has_cases():
    keys = {_key(path) for config in CONFIGS.values() for path, _ in _walk(config)}
    assert keys <= set(KEYS)
    assert {_key(path) for _, path, _, _ in CASES} == keys


def test_every_refused_value_names_its_key(tmp_path):
    wrong = []
    for command, path, bad, named in CASES:
        code, err = _run(command, _set(CONFIGS[command], path, bad), tmp_path)
        if code != 2 or not err.startswith("config error: ") or _shown(named) not in err:
            wrong.append(f"{command} {_shown(path)}={json.dumps(bad)}: exit {code}, {err!r}")
    assert not wrong, "\n".join(wrong)


def _wrong_type(rule):
    """A strategy for values of another type than the row's, or below its range."""
    other = {"none": st.none(), "bool": st.booleans(), "text": st.text(max_size=3),
             "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
             "list": st.lists(st.integers(), max_size=3), "int": st.integers(),
             "number": st.floats()}
    kinds = [s for kind, s in other.items() if kind not in TAKES[rule.type]]
    if rule.type == "number":
        kinds.append(st.sampled_from([math.nan, math.inf, -math.inf]))
    if rule.lo is not None and rule.type in ("int", "number"):
        kinds.append(st.integers(max_value=math.ceil(rule.lo) - 1))
    if rule.choices and rule.type == "text":
        kinds.append(st.text(max_size=5))
    return st.one_of(kinds).filter(lambda v: v not in rule.choices)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_drawn_wrong_values_name_their_key(tmp_path_factory, data):
    command, path, _, _ = data.draw(st.sampled_from([case for case in CASES if case[1]]))
    bad = data.draw(_wrong_type(KEYS[_key(path)]))
    code, err = _run(command, _set(CONFIGS[command], path, bad), tmp_path_factory.mktemp("d"))
    assert code == 2 and err.startswith("config error: ") and _shown(path) in err, (code, err)


def test_readme_lists_every_key():
    # the README's table of keys and KEYS name the same keys (the root row aside)
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("| key |"):]
    table = table[:table.index("\n\n")]
    listed = re.findall(r"^\| `([^`]+)` \|", table, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(KEYS) - {""}
