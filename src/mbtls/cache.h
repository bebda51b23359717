// The pre-tls:: names of the control-plane caches (tls/cache.h). They exist
// only because the socket benchmark (sockbench/), which is frozen so that
// runs stay comparable across commits, still names them under mb::. Code in
// the repository uses the tls:: names.
#pragma once

#include "tls/cache.h"

namespace mbtls::mb {

using ShardedSessionCache = tls::SessionCache;
using CertPool = tls::CertPool;
using QuoteVerifyCache = tls::QuoteVerifyCache;
using CacheStats = tls::CacheStats;

}  // namespace mbtls::mb
