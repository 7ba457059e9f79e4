# Convenience targets for the MAX-PolyMem reproduction.

.PHONY: install test bench scorecard examples clean

install:
	python setup.py develop

test:
	pytest tests/ -q

bench:
	pytest benchmarks/ --benchmark-only -q

scorecard:
	python -m repro experiments

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	rm -f benchmarks/out/ledger.jsonl benchmarks/out/*_smoke.*
	find . -name __pycache__ -type d -exec rm -rf {} +
