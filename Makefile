# Convenience targets mirroring the CI pipeline (.github/workflows/ci.yml).
# Everything runs against the in-tree sources via PYTHONPATH=src so no
# install step is needed.

PY ?= python
PYTHONPATH := src

.PHONY: test perfbench lint lint-strict lint-changed selftest health bench-lint clean-lint-cache

test:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest tests/ -q

perfbench:
	$(PY) -m pytest perfbench -q

lint:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro

lint-strict:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro --strict --cache .lint-cache.json

lint-changed:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.lint src/repro --changed

selftest:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.cli selftest --lint-cache .lint-cache.json

health:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m repro.cli health --clusters 4 --seed 0 --openmetrics-out health.om

bench-lint:
	PYTHONPATH=$(PYTHONPATH) $(PY) -m pytest benchmarks/test_lint_dataflow.py -q

clean-lint-cache:
	rm -f .lint-cache.json
