# Developer shortcuts.  Everything assumes a source checkout
# (PYTHONPATH=src); `pip install -e .` users can drop the prefix.

PY      := python
PP      := PYTHONPATH=src
BENCHD  := .bench

.PHONY: test test-fast lint bench-smoke bench-overhead bench-sweep \
        bench-sweep-sharded bench-sweep-sharded-quick \
        bench-model bench-model-quick service-smoke chaos-smoke clean

test:
	$(PP) $(PY) -m pytest -q

test-fast:
	$(PP) $(PY) -m pytest -q -m "not slow"

lint:
	ruff check src tests

# One profiled benchmark run: keeps the Chrome-trace and metrics
# exporters exercised end-to-end (CI runs this on every push).
bench-smoke:
	mkdir -p $(BENCHD)
	$(PP) $(PY) -c "from repro.kernels import heat_source; \
	  open('$(BENCHD)/heat.c', 'w').write(heat_source(6, 258))"
	$(PP) $(PY) -m repro profile $(BENCHD)/heat.c -t 4 -c 1 \
	  --profile $(BENCHD)/trace.json --metrics-out $(BENCHD)/metrics.json
	$(PP) $(PY) -c "import json; \
	  doc = json.load(open('$(BENCHD)/trace.json')); \
	  names = {e['name'] for e in doc['traceEvents'] if e['ph'] == 'X'}; \
	  assert len(names) >= 6, names; \
	  m = json.load(open('$(BENCHD)/metrics.json')); \
	  assert any(k.startswith('fs_cases{') for k in m['counters']), m; \
	  print('bench-smoke OK:', len(names), 'span names')"

# Cold-vs-warm engine sweep: same grid twice through a fresh result
# store; records wall times + cache counters to BENCH_engine.json and
# asserts the warm run is served from cache.
bench-sweep:
	mkdir -p $(BENCHD)
	$(PP) REPRO_CACHE_DIR=$(BENCHD)/cache $(PY) benchmarks/bench_engine_sweep.py \
	  --jobs 4 --out $(BENCHD)/BENCH_engine.json
	$(PP) $(PY) -c "import json; \
	  doc = json.load(open('$(BENCHD)/BENCH_engine.json')); \
	  print('bench-sweep OK:', json.dumps(doc['summary']))"

# Sharded / two-tier / incremental sweep gate (docs/ENGINE.md): the
# same grid at --shards 1/2/4 must be byte-identical to the serial
# uncached baseline (points AND store contents); a warm re-run must be
# >=95% memory-tier hits with zero pool dispatches; an incremental
# manifest re-run must recompute only the edited kernel's cells.  The
# >=2x cold-scaling gate at 4 shards additionally applies on boxes
# with >=4 usable cores.  Writes BENCH_shards.json.
bench-sweep-sharded:
	mkdir -p $(BENCHD)
	$(PP) REPRO_CACHE_DIR=$(BENCHD)/shard-cache $(PY) benchmarks/bench_shard_sweep.py \
	  --out $(BENCHD)/BENCH_shards.json
	$(PP) $(PY) -c "import json; \
	  doc = json.load(open('$(BENCHD)/BENCH_shards.json')); \
	  print('bench-sweep-sharded OK:', json.dumps(doc['summary']))"

# CI-sized variant: small grid, invariants only (no scaling gate).
bench-sweep-sharded-quick:
	mkdir -p $(BENCHD)
	$(PP) REPRO_CACHE_DIR=$(BENCHD)/shard-cache $(PY) benchmarks/bench_shard_sweep.py \
	  --quick --out $(BENCHD)/BENCH_shards.json
	$(PP) $(PY) -c "import json; \
	  doc = json.load(open('$(BENCHD)/BENCH_shards.json')); \
	  assert doc['summary']['ok'], doc['failures']; \
	  print('bench-sweep-sharded-quick OK:', json.dumps(doc['summary']))"

# FS detector benchmark (docs/PERFORMANCE.md): the default model (fast
# detector + exact steady-state early exit) vs the scalar reference.
# Writes BENCH_model.json; exits nonzero if the ≥10× micro / ≥50×
# large-grid targets regress or the two engines disagree.
bench-model:
	$(PP) $(PY) benchmarks/bench_model_fastpath.py --out BENCH_model.json

# CI-sized variant: seconds instead of minutes, looser targets
# (≥5× micro; no large-grid speed target).
bench-model-quick:
	mkdir -p $(BENCHD)
	$(PP) $(PY) benchmarks/bench_model_fastpath.py --quick \
	  --out $(BENCHD)/BENCH_model.json

# Boot the analysis service daemon, drive the full client contract
# (submit, NDJSON stream, warm-cache re-submit, /metrics counters) and
# require a graceful SIGTERM drain with exit 0 (docs/SERVICE.md).
service-smoke:
	mkdir -p $(BENCHD)
	$(PP) REPRO_CACHE_DIR=$(BENCHD)/svc-cache $(PY) benchmarks/service_smoke.py \
	  --out $(BENCHD)/SERVICE_smoke.json

# Chaos soak: SIGKILL the journaled daemon 5 times mid-sweep and prove
# zero lost and zero duplicated result rows across crash-recovery
# (docs/SERVICE.md "Operations & failure modes").
chaos-smoke:
	mkdir -p $(BENCHD)
	$(PP) $(PY) benchmarks/chaos_soak.py --kills 5 \
	  --out $(BENCHD)/CHAOS_soak.json

# Guard the <5% disabled-overhead budget on the model's hot path.
bench-overhead:
	$(PP) $(PY) -m pytest benchmarks/bench_model_throughput.py -q \
	  -k "detector or end_to_end" --benchmark-min-rounds=3

clean:
	rm -rf $(BENCHD) .pytest_cache .ruff_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
