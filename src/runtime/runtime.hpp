// Umbrella header for the motif runtime (simulated multicomputer substrate).
#pragma once

#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rng.hpp"
#include "runtime/stream.hpp"
#include "runtime/svar.hpp"
