#ifndef COBRA_QUERY_ANALYZER_H_
#define COBRA_QUERY_ANALYZER_H_

#include "base/status.h"
#include "extensions/extension.h"
#include "query/parser.h"
#include "query/snapshot.h"

namespace cobra::query {

// The query-text analyzer is the parser: AnalyzeQueryText and
// AnalyzeQueryTextWithFacts are declared in query/parser.h.

/// Pre-execution plan verification (the preprocessor's contract, checked
/// statically): the plan's video must be registered, and both its event
/// patterns must be satisfiable — existing event metadata OR at least one
/// registered extension able to extract the type. Returns the exact Status
/// execution would have failed with, but before the result cache is
/// consulted or any extraction engine fires. Read-only: verification never
/// mutates the catalog.
///
/// Over a snapshot, extraction providers still count as satisfiable so that
/// a snapshot read fails with the execution layer's typed "extraction needs
/// a live query" error, not a misleading NotFound. Over a sharded set the
/// verdict is the owning shard's (ReadSurface::Resolve).
Status VerifyPlan(const ParsedQuery& query, const ReadSurface& surface,
                  const extensions::ExtensionRegistry& registry);

}  // namespace cobra::query

#endif  // COBRA_QUERY_ANALYZER_H_
