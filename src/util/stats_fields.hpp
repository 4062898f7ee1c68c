// Field lists for the flat stats blocks (groups::GroupStats,
// sim::NetworkStats, multicast::HopStats).
//
// Each block names its scalar fields once, as an X-macro
// GEOMCAST_<BLOCK>_FIELDS(X) holding one X(type, name) entry per field in
// declaration order. The struct members, GroupStats::operator+= and the
// obs::to_json serialisers are expansions of that list, so adding a counter
// is one line in its block's list: the member, the merge and the JSON key
// follow from it.
#pragma once

/// Expands one list entry into a zero-initialised struct member.
#define GEOMCAST_STATS_MEMBER(type, name) type name = 0;
