"""Guard the public API surface against accidental drift.

``tests/data/api_surface.json`` freezes the names ``repro.api`` and
``repro.obs`` export and the parameter lists of the main entry points.
Any change — adding, removing, renaming, or reordering keyword
parameters — fails here until the fixture is updated *deliberately* in
the same commit, which makes API changes visible in review instead of
slipping out as silent breakage for downstream scripts.

Regenerate after an intentional change::

    PYTHONPATH=src python - <<'EOF'
    import inspect, json
    import repro.api as api
    import repro.obs as obs
    surface = {
        "all": sorted(api.__all__),
        "obs_all": sorted(obs.__all__),
        "signatures": {
            name: list(inspect.signature(getattr(api, name)).parameters)
            for name in ("simulate", "make_runner", "sweep",
                         "profile_run", "execute", "resolve_request")
        },
    }
    with open("tests/data/api_surface.json", "w") as out:
        json.dump(surface, out, indent=2, sort_keys=True)
        out.write("\n")
    EOF
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import repro
import repro.api as api
import repro.obs as obs

FIXTURE = Path(__file__).parent / "data" / "api_surface.json"


def _frozen() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


class TestApiSurface:
    def test_exported_names_match_fixture(self):
        assert sorted(api.__all__) == _frozen()["all"], (
            "repro.api.__all__ changed; if intentional, regenerate "
            "tests/data/api_surface.json (see this module's docstring)")

    def test_obs_exported_names_match_fixture(self):
        assert sorted(obs.__all__) == _frozen()["obs_all"], (
            "repro.obs.__all__ changed; if intentional, regenerate "
            "tests/data/api_surface.json (see this module's docstring)")

    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None
        for name in obs.__all__:
            assert getattr(obs, name) is not None

    def test_entry_point_signatures_match_fixture(self):
        for name, params in _frozen()["signatures"].items():
            actual = list(inspect.signature(getattr(api, name)).parameters)
            assert actual == params, (
                f"repro.api.{name} signature changed; if intentional, "
                f"regenerate tests/data/api_surface.json")

    def test_api_names_reexported_from_top_level(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name)
