"""tlpsim-audit — semantic static-analysis suite for tlpsim.

Five repo-specific checkers driven by the exported compilation database
(build/compile_commands.json), each expressing an invariant the paper's
figures depend on but that generic lint (clang-tidy, -Werror) cannot:

  determinism  no nondeterminism sources in simulation code: wall-clock
               reads, rand()/random_device, pointer-keyed ordered
               containers, iteration over unordered containers.
  layering     the module include graph is the declared DAG
               (common <- {mem,trace,tlb,prefetch,cache,offchip,filter,
               tracefile,workloads,core} <- sim <- cli, with store a
               leaf both sim and cli may use), and every header under
               src/ compiles standalone.
  schema       no drift between a component's Params struct and its
               registered KnobSchema: every field has a knob, every
               knob has a field, defaults are rendered from the
               default-constructed Params (never literals), and the
               shipped presets only name registered components/knobs.
  reset        every registry-built component initializes each scalar
               data member at its declaration (NSDMI) or in a
               constructor init list, so memoized Runner reuse can
               never observe stale state.
  hotpath      no allocation inside `// tlpsim:hot` regions (new,
               std::function, node-based containers, strings, unwaived
               container growth), balanced markers, and every hot
               region's module closure inside the hot-safe modules.

Any finding can be waived at the offending line (or the line above)
with

    // tlpsim:waive(<check>) <reason>

where <reason> is mandatory: a reason-less waiver is itself a finding.
A check may mark a finding unwaivable (hotpath does so for everything
but container growth); a waiver then leaves it an error.

The suite is dependency-free Python over the compilation database: it
runs in minimal containers (the dev image has neither libclang nor the
clang python bindings), and the self-contained-header check invokes the
same compiler the compilation database records, so its verdicts track
the real build. CI pins and echoes the toolchain versions so baseline
drift cannot come from silent upgrades.

Run it:

    python3 -m tools.tlpsim_audit --compdb build/compile_commands.json --werror
"""

__version__ = "1.0"

CHECKS = ("determinism", "layering", "schema", "reset", "hotpath")
