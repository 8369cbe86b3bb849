// Debug invariant checks for the determinism-critical paths.
//
// CERTQUIC_ASSERT(cond, msg) polices invariants that the golden tests
// only catch indirectly (sink lifecycle order, plan-order monotonicity
// in the sequencer and spill merge).
// The checks are ON when CERTQUIC_ENABLE_ASSERTS is defined — which the
// build system does for Debug builds and for every sanitized build
// (CERTQUIC_SANITIZE, see the root CMakeLists.txt) — and compile to
// nothing in optimized release builds, so hot paths pay zero cost.
//
// A failed assert prints the condition, location and message to stderr
// and aborts: these are programming errors (an engine or sink breaking
// its own contract), not recoverable input errors — those throw
// config_error/codec_error instead.
#pragma once

#if defined(CERTQUIC_ENABLE_ASSERTS)

#include <cstdio>
#include <cstdlib>

#define CERTQUIC_ASSERT(cond, msg)                                     \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr,                                             \
                   "CERTQUIC_ASSERT failed: %s\n  at %s:%d\n  %s\n",   \
                   #cond, __FILE__, __LINE__, (msg));                  \
      std::abort();                                                    \
    }                                                                  \
  } while (false)

#else

#define CERTQUIC_ASSERT(cond, msg) ((void)0)

#endif
