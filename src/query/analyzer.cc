// The pre-execution plan verifier (VerifyPlan), declared in analyzer.h.

#include "query/analyzer.h"

namespace cobra::query {

Status VerifyPlan(const ParsedQuery& query, const ReadSurface& surface,
                  const extensions::ExtensionRegistry& registry) {
  COBRA_ASSIGN_OR_RETURN(const ReadSurface source,
                         surface.Resolve(query.video));
  COBRA_ASSIGN_OR_RETURN(const model::VideoDescriptor video,
                         source.FindVideo(query.video));
  // Mirrors the preprocessor's failure exactly, minus its side effects.
  auto satisfiable = [&](const std::string& type) {
    if (source.HasEvents(video.id, type) || !registry.Providers(type).empty()) {
      return Status::OK();
    }
    return Status::NotFound("no metadata and no extraction method for '" +
                            type + "'");
  };
  COBRA_RETURN_IF_ERROR(satisfiable(query.primary.type));
  if (query.temporal_op == TemporalOp::kNone) return Status::OK();
  return satisfiable(query.secondary.type);
}

}  // namespace cobra::query
