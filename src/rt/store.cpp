#include "rt/store.h"


#include "hic/infer.h"
#include "hic/parser.h"
#include "support/file.h"
#include "support/strings.h"

namespace hicsync::rt {

namespace {

bool fail(ArtifactError* error, const std::string& code,
          const std::string& message) {
  if (error != nullptr) {
    error->code = code;
    error->message = message;
  }
  return false;
}

/// First error line of the engine, for embedding in an ArtifactError.
std::string first_error(const support::DiagnosticEngine& diags) {
  for (const support::Diagnostic* d : diags.sorted_diagnostics()) {
    if (d->severity == support::Severity::Error) return d->str();
  }
  return "unknown front-end error";
}

const hic::Dependency* find_dep(const hic::Sema& sema,
                                const std::string& id) {
  for (const hic::Dependency& dep : sema.dependencies()) {
    if (dep.id == id) return &dep;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<sim::SystemSim> LoadedProgram::make_simulator(
    sim::SystemOptions options) const {
  return std::make_unique<sim::SystemSim>(program_, *sema_, map_, plans_,
                                          options);
}

std::unique_ptr<sim::SystemSim> LoadedProgram::make_simulator() const {
  sim::SystemOptions options;
  options.organization = organization_;
  options.restart_threads = true;
  return make_simulator(options);
}

std::string LoadedProgram::describe() const {
  std::string out = support::format(
      "%s: %s organization, %d thread%s, %d dependenc%s, %d bram%s\n",
      name().c_str(), artifact_.organization.c_str(),
      static_cast<int>(program_.threads.size()),
      program_.threads.size() == 1 ? "" : "s",
      static_cast<int>(sema_->dependencies().size()),
      sema_->dependencies().size() == 1 ? "y" : "ies",
      static_cast<int>(map_.brams().size()),
      map_.brams().size() == 1 ? "" : "s");
  for (const ArtifactController& c : artifact_.controllers) {
    out += support::format(
        "  %s: %d consumer%s, %d producer%s, %d slices, %.1f MHz\n",
        c.module.c_str(), c.consumers, c.consumers == 1 ? "" : "s",
        c.producers, c.producers == 1 ? "" : "s", c.slices, c.fmax_mhz);
  }
  return out;
}

std::shared_ptr<const LoadedProgram> load_program(const Artifact& artifact,
                                                  ArtifactError* error) {
  // shared_ptr<LoadedProgram> during construction, const on return.
  std::shared_ptr<LoadedProgram> lp(new LoadedProgram());
  lp->artifact_ = artifact;
  (void)sim::parse_org(artifact.organization, &lp->organization_);
  lp->diags_.set_source_name(artifact.source_name);

  // Front end only: parse → (infer) → sema. The embedded source was
  // compiling when the artifact was emitted, so failures here mean the
  // toolchain's language rules moved underneath the artifact.
  try {
    lp->program_ = hic::parse_source(artifact.source, lp->diags_);
  } catch (const support::CompileError& e) {
    fail(error, "rt-source-error",
         std::string("embedded source no longer parses: ") + e.what());
    return nullptr;
  }
  if (lp->diags_.has_errors()) {
    fail(error, "rt-source-error",
         "embedded source no longer parses: " + first_error(lp->diags_));
    return nullptr;
  }
  if (artifact.infer_dependencies) {
    hic::infer_dependencies(lp->program_, lp->diags_);
    if (lp->diags_.has_errors()) {
      fail(error, "rt-source-error",
           "dependency inference failed: " + first_error(lp->diags_));
      return nullptr;
    }
  }
  lp->sema_ = std::make_unique<hic::Sema>(lp->program_, lp->diags_);
  if (!lp->sema_->run()) {
    fail(error, "rt-source-error",
         "embedded source no longer analyzes: " + first_error(lp->diags_));
    return nullptr;
  }

  // The artifact's map and plans are only meaningful against semantics
  // identical to the ones they were derived from.
  std::string digest = sema_digest(*lp->sema_);
  if (digest != artifact.sema_digest) {
    fail(error, "rt-sema-mismatch",
         support::format(
             "rebuilt semantic digest %s does not match recorded %s",
             digest.c_str(), artifact.sema_digest.c_str()));
    return nullptr;
  }

  // Resolve the stored names against the fresh Sema and restore the map.
  std::vector<memalloc::BramInstance> brams;
  for (const ArtifactBram& ab : artifact.brams) {
    memalloc::BramInstance b;
    b.id = ab.id;
    b.shape = memalloc::BramShape{ab.width, ab.depth};
    b.primitives = ab.primitives;
    for (const ArtifactPlacement& ap : ab.placements) {
      hic::Symbol* sym = lp->sema_->lookup(ap.thread, ap.var);
      if (sym == nullptr) {
        fail(error, "rt-resolve-error",
             support::format("placed variable %s.%s is unknown",
                             ap.thread.c_str(), ap.var.c_str()));
        return nullptr;
      }
      memalloc::Placement p;
      p.symbol = sym;
      p.base_address = ap.base_address;
      p.words = ap.words;
      b.placements.push_back(p);
    }
    for (const std::string& dep_id : ab.deps) {
      const hic::Dependency* dep = find_dep(*lp->sema_, dep_id);
      if (dep == nullptr) {
        fail(error, "rt-resolve-error",
             support::format("dependency '%s' of bram%d is unknown",
                             dep_id.c_str(), ab.id));
        return nullptr;
      }
      b.dependencies.push_back(dep);
    }
    brams.push_back(std::move(b));
  }
  std::vector<hic::Symbol*> registers;
  for (const std::string& qualified : artifact.registers) {
    std::size_t dot = qualified.find('.');
    hic::Symbol* sym =
        dot == std::string::npos
            ? nullptr
            : lp->sema_->lookup(qualified.substr(0, dot),
                                qualified.substr(dot + 1));
    if (sym == nullptr) {
      fail(error, "rt-resolve-error",
           "register variable " + qualified + " is unknown");
      return nullptr;
    }
    registers.push_back(sym);
  }
  lp->map_ = memalloc::MemoryMap::restore(std::move(brams),
                                          std::move(registers));

  for (const ArtifactPortPlan& app : artifact.plans) {
    memalloc::BramPortPlan plan;
    plan.bram_id = app.bram_id;
    for (const ArtifactPortClient& ac : app.clients) {
      memalloc::PortClient c;
      c.thread = ac.thread;
      c.port = ac.port == "A"   ? memalloc::LogicalPort::A
               : ac.port == "B" ? memalloc::LogicalPort::B
               : ac.port == "C" ? memalloc::LogicalPort::C
                                : memalloc::LogicalPort::D;
      c.pseudo_port = ac.pseudo_port;
      for (const std::string& dep_id : ac.deps) {
        const hic::Dependency* dep = find_dep(*lp->sema_, dep_id);
        if (dep == nullptr) {
          fail(error, "rt-resolve-error",
               support::format("dependency '%s' of a bram%d port client "
                               "is unknown",
                               dep_id.c_str(), app.bram_id));
          return nullptr;
        }
        c.deps.push_back(dep);
      }
      plan.clients.push_back(std::move(c));
    }
    lp->plans_.push_back(std::move(plan));
  }

  if (error != nullptr) *error = ArtifactError{};
  return lp;
}

std::shared_ptr<const LoadedProgram> ProgramStore::load_bytes(
    std::string_view bytes, ArtifactError* error) {
  Artifact artifact;
  if (!parse_artifact(bytes, &artifact, error)) return nullptr;
  std::shared_ptr<const LoadedProgram> lp = load_program(artifact, error);
  if (lp == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  programs_[lp->name()] = lp;
  return lp;
}

std::shared_ptr<const LoadedProgram> ProgramStore::load_file(
    const std::string& path, ArtifactError* error) {
  std::string bytes;
  if (!support::read_file(path, &bytes)) {
    fail(error, "rt-io-error", "cannot read artifact file " + path);
    return nullptr;
  }
  return load_bytes(bytes, error);
}

std::shared_ptr<const LoadedProgram> ProgramStore::get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = programs_.find(name);
  return it == programs_.end() ? nullptr : it->second;
}

std::vector<std::string> ProgramStore::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(programs_.size());
  for (const auto& [name, lp] : programs_) out.push_back(name);
  return out;
}

std::size_t ProgramStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return programs_.size();
}

}  // namespace hicsync::rt
