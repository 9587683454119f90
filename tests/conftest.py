from hypothesis import settings

# reproducible property tests: a fixed example sequence, a bounded count,
# and no per-example deadline (exact arithmetic can be slow to warm up)
settings.register_profile("flagcsm", derandomize=True, max_examples=60,
                          deadline=None)
settings.load_profile("flagcsm")
