#include "psl/formula.hpp"

namespace loom::psl {
namespace {

FormulaPtr make(Op op, FormulaPtr lhs = nullptr, FormulaPtr rhs = nullptr) {
  auto f = std::make_shared<Formula>();
  f->op = op;
  f->lhs = std::move(lhs);
  f->rhs = std::move(rhs);
  return f;
}

}  // namespace

FormulaPtr f_true() {
  static const FormulaPtr t = make(Op::True);
  return t;
}

FormulaPtr f_false() {
  static const FormulaPtr f = make(Op::False);
  return f;
}

FormulaPtr f_atom(spec::Name token) {
  auto f = std::make_shared<Formula>();
  f->op = Op::Atom;
  f->atom = token;
  return f;
}

FormulaPtr f_not(FormulaPtr a) { return make(Op::Not, std::move(a)); }
FormulaPtr f_and(FormulaPtr a, FormulaPtr b) {
  return make(Op::And, std::move(a), std::move(b));
}
FormulaPtr f_or(FormulaPtr a, FormulaPtr b) {
  return make(Op::Or, std::move(a), std::move(b));
}
FormulaPtr f_implies(FormulaPtr a, FormulaPtr b) {
  return make(Op::Implies, std::move(a), std::move(b));
}
FormulaPtr f_next(FormulaPtr a) { return make(Op::Next, std::move(a)); }
FormulaPtr f_until(FormulaPtr a, FormulaPtr b) {
  return make(Op::Until, std::move(a), std::move(b));
}
FormulaPtr f_always(FormulaPtr a) { return make(Op::Always, std::move(a)); }
FormulaPtr f_eventually(FormulaPtr a) {
  return make(Op::Eventually, std::move(a));
}

FormulaPtr f_any_of(const std::vector<spec::Name>& tokens) {
  if (tokens.empty()) return f_false();
  FormulaPtr out = f_atom(tokens.front());
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    out = f_or(std::move(out), f_atom(tokens[i]));
  }
  return out;
}

std::size_t size(const FormulaPtr& f) {
  if (!f) return 0;
  return 1 + size(f->lhs) + size(f->rhs);
}

std::size_t temporal_size(const FormulaPtr& f) {
  if (!f) return 0;
  const std::size_t self =
      f->op == Op::Next || f->op == Op::Until || f->op == Op::Always ||
              f->op == Op::Eventually
          ? 1
          : 0;
  return self + temporal_size(f->lhs) + temporal_size(f->rhs);
}

std::string to_string(const FormulaPtr& f,
                      const std::vector<std::string>& token_texts) {
  std::string out;
  append_to(out, f, token_texts);
  return out;
}

void append_to(std::string& out, const FormulaPtr& f,
               const std::vector<std::string>& token_texts) {
  if (!f) {
    out += '?';
    return;
  }
  const auto call = [&](const char* name) {
    out += name;
    out += '(';
    append_to(out, f->lhs, token_texts);
    out += ')';
  };
  const auto infix = [&](const char* op) {
    out += '(';
    append_to(out, f->lhs, token_texts);
    out += op;
    append_to(out, f->rhs, token_texts);
    out += ')';
  };
  switch (f->op) {
    case Op::True: out += "true"; return;
    case Op::False: out += "false"; return;
    case Op::Atom:
      if (f->atom < token_texts.size()) {
        out += token_texts[f->atom];
      } else {
        out += "tok";
        out += std::to_string(f->atom);
      }
      return;
    case Op::Not:
      out += '!';
      append_to(out, f->lhs, token_texts);
      return;
    case Op::And: infix(" && "); return;
    case Op::Or: infix(" || "); return;
    case Op::Implies: infix(" -> "); return;
    case Op::Next: call("next"); return;
    case Op::Until: infix(" until! "); return;
    case Op::Always: call("always"); return;
    case Op::Eventually: call("eventually"); return;
  }
  out += '?';
}

}  // namespace loom::psl
