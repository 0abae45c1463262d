import json
import os
import sys
from pathlib import Path

import pytest

# compile the package without writing bytecode caches into the checkout,
# whose presence would change the start-up time and memory of a later
# benchmark run from it: set here, before any test imports multicat, and
# in the environment of the CLI processes that the tests start
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))  # oracles.py


@pytest.fixture(scope="session")
def fx():
    return json.loads((HERE / "fixtures" / "oracle_fixtures.json").read_text())


@pytest.fixture(scope="session")
def docs_dir():
    return HERE.parent / "fixtures"
