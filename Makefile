# Convenience targets for the FDIP reproduction.

PY ?= python

.PHONY: install test test-fast lint typecheck bench bench-full perf report calibrate obs-smoke serve-smoke clean

# Files under the typed surface: the telemetry spine, the component
# protocol, and the stable API facade.
TYPECHECK_FILES = src/repro/stats src/repro/component.py src/repro/api.py

install:
	pip install -e . --no-build-isolation

test:
	$(PY) -m pytest tests/

test-fast:
	$(PY) -m pytest tests/ -m "not slow"

lint:
	$(PY) -m ruff check src tests benchmarks examples

# Static type checking of the typed surface (configured in
# pyproject.toml [tool.mypy]).  Skips gracefully when mypy is not
# installed locally; CI always installs and runs it.
typecheck:
	@$(PY) -c "import mypy" 2>/dev/null \
	    && $(PY) -m mypy $(TYPECHECK_FILES) \
	    || echo "mypy not installed; skipping (CI runs this check)"

bench:
	REPRO_RESULT_CACHE=.result_cache \
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL=1 REPRO_RESULT_CACHE=.result_cache \
	$(PY) -m pytest benchmarks/ --benchmark-only

perf:
	$(PY) -m repro perf

report:
	$(PY) -m repro report -o report.md

calibrate:
	$(PY) -m repro calibrate

# End-to-end observability contract: event log schema + correlation
# ids, Perfetto-loadable trace export, profile buckets summing to the
# cycle count, and bit-identical results with observability on.
obs-smoke:
	$(PY) scripts/obs_smoke.py

# End-to-end serving contract: daemon startup, duplicate requests
# coalescing to one simulation, cache hits bit-identical to direct
# runs, clean shutdown — all asserted from the structured event log.
serve-smoke:
	$(PY) scripts/serve_smoke.py

clean:
	rm -rf .trace_cache .result_cache .serve_cache benchmarks/results \
	       .pytest_cache .hypothesis .perfbench_tmp .perfbench_out \
	       .benchmarks
