from hypothesis import settings

# every property is reproducible: a fixed example sequence, no example
# database, no per-example deadline on a shared machine
settings.register_profile("sidonor", derandomize=True, database=None, deadline=None)
settings.load_profile("sidonor")
