// FlowSteering is header-only. This file stays because
// e2ebench/CMakeLists.txt compiles it by name.
#include "ovs/steering.h"
