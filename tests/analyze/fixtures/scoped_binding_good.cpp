// must-pass: scoped-binding — a named world::Scope constructed before any
// accessor use, accessor-only code (the default context is legal: the
// process-wide auditor, every other field null), and a Scope type from
// another namespace, which the rule leaves alone.
namespace world {
struct Context {};
const Context& current();
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Context* operator->();
};
}  // namespace world
namespace audit {
struct Auditor {};
Auditor& global();
}  // namespace audit
namespace trace {
struct Recorder {};
Recorder* global();
}  // namespace trace
namespace fault {
struct Injector {};
Injector* active();
}  // namespace fault
namespace repl {
struct Coordinator {};
Coordinator* active();
}  // namespace repl
namespace arena {
struct Arena {};
Arena* current();
}  // namespace arena
namespace prof {
struct Meter {};
Meter* meter();
}  // namespace prof

void world_bound_first() {
  world::Scope scope;  // named, first thing in the scope
  world::current();   // reads the fresh binding
}

void world_default_context() {
  world::current();   // no guard in scope: the default context
}

void audit_bound_first() {
  world::Scope scope;  // named, first thing in the scope
  audit::global();    // reads the fresh binding
}

void audit_default_context() {
  audit::global();    // no guard in scope: the default context
}

void trace_bound_first() {
  world::Scope scope;  // named, first thing in the scope
  trace::global();    // reads the fresh binding
}

void trace_default_context() {
  trace::global();    // no guard in scope: the default context
}

void fault_bound_first() {
  world::Scope scope;  // named, first thing in the scope
  fault::active();    // reads the fresh binding
}

void fault_default_context() {
  fault::active();    // no guard in scope: the default context
}

void repl_bound_first() {
  world::Scope scope;  // named, first thing in the scope
  repl::active();     // reads the fresh binding
}

void repl_default_context() {
  repl::active();     // no guard in scope: the default context
}

void arena_bound_first() {
  world::Scope scope;  // named, first thing in the scope
  arena::current();   // reads the fresh binding
}

void arena_default_context() {
  arena::current();   // no guard in scope: the default context
}

void prof_bound_first() {
  world::Scope scope;  // named, first thing in the scope
  prof::meter();      // reads the fresh binding
}

void prof_default_context() {
  prof::meter();      // no guard in scope: the default context
}

namespace ui {
struct Scope {};
}  // namespace ui

void other_scope_type() {
  ui::Scope();  // not the world binding
}
