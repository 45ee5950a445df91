"""Every JSON object a loader reads holds exactly its fields, each once.

For the `.ascm` header, its config, its tensor table and the plan file,
dropping any required key, adding an unknown one or giving one twice ends
`asc prune` with exit 1 and `error: ...` naming the key, and writes nothing.
"""

import json
from dataclasses import fields, replace

import pytest

from asc.cli import main
from asc.model import ModelConfig, save_model, tensor_shapes
from asc.planner import PrunePlan, load_plan, plan_random, write_plan
from conftest import make_model
from test_model_store import read_header, rewrite_header

CONFIG, WEIGHTS = make_model(num_layers=1, hidden_dim=4, num_heads=2, ffn_dim=8, vocab_size=6,
                             max_seq_len=5)
UNKNOWN = "model_sha256"

# object -> (its key path in the header, or None for the plan file; its required keys)
OBJECTS = {
    "header": ((), ["version", "config", "tensors"]),
    "config": (("config",), [f.name for f in fields(ModelConfig)]),
    "tensors": (("tensors",), list(tensor_shapes(CONFIG))),
    "plan": (None, ["version", *(f.name for f in fields(PrunePlan) if f.name != "seed")]),
}


def key_set_cases():
    for obj, (_, keys) in OBJECTS.items():
        for key in keys:
            yield pytest.param(obj, key, None, id=f"{obj}-without-{key}")
        yield pytest.param(obj, None, UNKNOWN, id=f"{obj}-with-unknown-key")


def prune(tmp_path, plan_obj, edit_model=None, edit_plan=None, renamed=None):
    """Write the model and `plan_obj`, let the edits change their JSON, and
    run `asc prune`; returns (exit code, output path). With `renamed`, key
    UNKNOWN is renamed to it in the edited JSON text, which can then hold a
    key twice as no dict can."""
    model, plan_path, out = tmp_path / "m.ascm", tmp_path / "plan.json", tmp_path / "out.ascm"
    save_model(CONFIG, WEIGHTS, model)
    write_plan(plan_obj, plan_path)

    def rename(text):
        return text if renamed is None else text.replace(json.dumps(UNKNOWN), json.dumps(renamed))

    if edit_model:
        blob, header_len, header = read_header(model)
        edit_model(header)
        rewrite_header(model, rename(json.dumps(header)), blob[12 + header_len:])
    if edit_plan:
        payload = json.loads(plan_path.read_text())
        edit_plan(payload)
        plan_path.write_text(rename(json.dumps(payload)))
    return main(["prune", "--model", str(model), "--plan", str(plan_path), "--out", str(out)]), out


@pytest.mark.parametrize("obj, drop, add", key_set_cases())
def test_key_set_refused(tmp_path, capsys, obj, drop, add):
    keys_path, _ = OBJECTS[obj]

    def edit(document):
        target = document
        for key in keys_path or ():
            target = target[key]
        if drop:
            del target[drop]
        else:
            target[add] = "ff"

    plan_obj = PrunePlan(threshold=0.9, redundant_layers=(1,), anchors=((0, 1),))
    code, out = (prune(tmp_path, plan_obj, edit_plan=edit) if keys_path is None
                 else prune(tmp_path, plan_obj, edit_model=edit))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and (drop or add) in err
    assert not out.exists()


@pytest.mark.parametrize("keys_path, key, value", [
    pytest.param(None, "threshold", 0.5, id="plan-threshold"),
    pytest.param(("config",), "hidden_dim", CONFIG.hidden_dim, id="config-hidden_dim"),
    pytest.param(("tensors",), "embed.pos", None, id="tensors-embed.pos"),
    pytest.param(("tensors", "embed.pos"), "offset", None, id="tensor-entry-offset"),
])
def test_repeated_key_refused(tmp_path, capsys, keys_path, key, value):
    """`json` alone keeps a repeated key's last value: a plan file holding
    `"threshold": 0.9, "threshold": 0.5` once loaded as 0.5. The second
    copy here is equal to the first unless `value` is given."""

    def edit(document):
        target = document
        for name in keys_path or ():
            target = target[name]
        target[UNKNOWN] = target[key] if value is None else value

    on_plan = keys_path is None
    plan_obj = PrunePlan(threshold=0.9, redundant_layers=(1,), anchors=((0, 1),))
    code, out = prune(tmp_path, plan_obj, renamed=key,
                      **{"edit_plan" if on_plan else "edit_model": edit})
    path, what = (tmp_path / "plan.json", "plan") if on_plan else (tmp_path / "m.ascm", "header")
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: unparseable {what} (duplicate key {key!r})\n"
    assert not out.exists()


def test_unedited_files_prune(tmp_path):
    code, out = prune(tmp_path, PrunePlan(threshold=0.9, redundant_layers=(1,), anchors=((0, 1),)))
    assert code == 0 and out.exists()


def test_plan_without_seed_reads_as_none(tmp_path):
    """`seed` is the one optional plan key: a random plan file without it
    loads with seed None and prunes."""
    code, out = prune(tmp_path, plan_random(1, 1, seed=3), edit_plan=lambda p: p.pop("seed"))
    assert code == 0 and out.exists()
    assert load_plan(tmp_path / "plan.json") == replace(plan_random(1, 1, seed=3), seed=None)
