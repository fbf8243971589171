import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_mutation_kill_list_loads():
    # tools/mutants.py runs in a CI job of its own; loading its list checks
    # here that every snippet still occurs exactly once in its file
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.load(mutants.LIST)
