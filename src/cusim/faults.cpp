#include "cusim/faults.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "cupp/detail/minijson.hpp"
#include "cupp/trace.hpp"
#include "cusim/device.hpp"

namespace cusim::faults {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using cupp::trace::format;

/// Deterministic PRNG for probability triggers (the steer::Lcg constants;
/// cusim cannot depend on steer, so the two lines live here too).
class Lcg {
public:
    explicit Lcg(std::uint64_t seed = 0) : state_(seed) {}
    std::uint32_t next_u32() {
        state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state_ >> 32);
    }
    /// Uniform double in [0, 1).
    double next_double() { return (next_u32() >> 8) * (1.0 / 16777216.0); }

private:
    std::uint64_t state_;
};

/// Process-wide injection state. Intentionally leaked (like the trace and
/// memcheck registries) so the atexit report still sees it.
class State {
public:
    static State& instance() {
        static State* s = new State();
        return *s;
    }

    void configure(std::vector<Rule> rules, std::uint64_t seed, std::string report,
                   std::string source) {
        std::lock_guard<std::mutex> lock(mu_);
        rules_ = std::move(rules);
        rng_ = Lcg(seed);
        seed_ = seed;
        calls_ = {};
        injected_by_site_ = {};
        injected_total_ = 0;
        if (!report.empty()) report_path_ = std::move(report);
        plan_source_ = std::move(source);
    }

    void clear() {
        std::lock_guard<std::mutex> lock(mu_);
        rules_.clear();
        calls_ = {};
        injected_by_site_ = {};
        injected_total_ = 0;
        report_path_.clear();
        plan_source_.clear();
        seed_ = 0;
    }

    void set_report_path(std::string path) {
        std::lock_guard<std::mutex> lock(mu_);
        report_path_ = std::move(path);
    }

    /// Evaluates the rules for one site call. Returns the code to inject
    /// (Success = none) and fills `message` / `call_no`.
    ErrorCode evaluate(Site site, std::string_view label, std::string* message,
                       std::uint64_t* call_no) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto s = static_cast<std::size_t>(site);
        const std::uint64_t n = ++calls_[s];
        *call_no = n;
        for (Rule& r : rules_) {
            if (r.site != site) continue;
            if (r.injected >= r.max_injections) continue;
            if (!r.filter.empty() && label.find(r.filter) == std::string_view::npos) {
                continue;
            }
            const bool hit = (r.nth != 0 && n == r.nth) ||
                             (r.every != 0 && n % r.every == 0) ||
                             (r.probability > 0.0 && rng_.next_double() < r.probability);
            if (!hit) continue;
            ++r.injected;
            ++injected_total_;
            ++injected_by_site_[s];
            *message = format("injected %s fault at %s call #%llu%s%.*s%s",
                              code_name(r.code), site_name(site),
                              static_cast<unsigned long long>(n),
                              label.empty() ? "" : " (",
                              static_cast<int>(label.size()), label.data(),
                              label.empty() ? "" : ")");
            return r.code;
        }
        return ErrorCode::Success;
    }

    std::vector<Rule> rules() const {
        std::lock_guard<std::mutex> lock(mu_);
        return rules_;
    }
    std::uint64_t injections() const {
        std::lock_guard<std::mutex> lock(mu_);
        return injected_total_;
    }
    std::uint64_t injections(Site site) const {
        std::lock_guard<std::mutex> lock(mu_);
        return injected_by_site_[static_cast<std::size_t>(site)];
    }
    std::uint64_t site_calls(Site site) const {
        std::lock_guard<std::mutex> lock(mu_);
        return calls_[static_cast<std::size_t>(site)];
    }
    std::string plan_source() const {
        std::lock_guard<std::mutex> lock(mu_);
        return plan_source_;
    }
    std::string report_path() const {
        std::lock_guard<std::mutex> lock(mu_);
        return report_path_;
    }

    std::string to_json() const {
        std::lock_guard<std::mutex> lock(mu_);
        using cupp::trace::json_quote;
        std::string out = "{\n  \"faults\": {\n";
        out += format("    \"plan\": %s,\n", json_quote(plan_source_).c_str());
        out += format("    \"seed\": %llu,\n", static_cast<unsigned long long>(seed_));
        out += format("    \"total_injections\": %llu,\n",
                      static_cast<unsigned long long>(injected_total_));
        std::uint64_t total_calls = 0;
        for (const std::uint64_t c : calls_) total_calls += c;
        out += format("    \"total_calls\": %llu,\n",
                      static_cast<unsigned long long>(total_calls));
        out += "    \"by_site\": {";
        bool first = true;
        for (std::size_t s = 0; s < kSiteCount; ++s) {
            if (injected_by_site_[s] == 0) continue;
            if (!first) out += ", ";
            first = false;
            out += format("\"%s\": %llu", site_name(static_cast<Site>(s)),
                          static_cast<unsigned long long>(injected_by_site_[s]));
        }
        out += "},\n    \"rules\": [\n";
        for (std::size_t i = 0; i < rules_.size(); ++i) {
            const Rule& r = rules_[i];
            // "max": 0 means uncapped (a plan never writes 0 — absence is
            // the uncapped spelling there).
            const std::uint64_t cap =
                r.max_injections == ~std::uint64_t{0} ? 0 : r.max_injections;
            out += format(
                "      {\"site\": %s, \"code\": %s, \"probability\": %g, "
                "\"nth\": %llu, \"every\": %llu, \"max\": %llu, \"filter\": %s, "
                "\"injected\": %llu}%s\n",
                json_quote(site_name(r.site)).c_str(),
                json_quote(code_name(r.code)).c_str(), r.probability,
                static_cast<unsigned long long>(r.nth),
                static_cast<unsigned long long>(r.every),
                static_cast<unsigned long long>(cap),
                json_quote(r.filter).c_str(),
                static_cast<unsigned long long>(r.injected),
                i + 1 < rules_.size() ? "," : "");
        }
        out += "    ]\n  }\n}\n";
        return out;
    }

    std::string to_text() const {
        std::lock_guard<std::mutex> lock(mu_);
        if (injected_total_ == 0) return "cusim::faults: no faults injected\n";
        std::string out =
            format("cusim::faults: %llu fault(s) injected (plan %s)\n",
                   static_cast<unsigned long long>(injected_total_),
                   plan_source_.empty() ? "api" : plan_source_.c_str());
        for (const Rule& r : rules_) {
            if (r.injected == 0) continue;
            out += format("  %s at %s: %llu injection(s)\n", code_name(r.code),
                          site_name(r.site),
                          static_cast<unsigned long long>(r.injected));
        }
        return out;
    }

private:
    State() = default;

    mutable std::mutex mu_;
    std::vector<Rule> rules_;
    Lcg rng_{0};
    std::uint64_t seed_ = 0;
    std::array<std::uint64_t, kSiteCount> calls_{};
    std::array<std::uint64_t, kSiteCount> injected_by_site_{};
    std::uint64_t injected_total_ = 0;
    std::string report_path_;
    std::string plan_source_;
};

void atexit_report() {
    const std::string path = State::instance().report_path();
    if (!path.empty()) write_report(path);
    if (State::instance().injections() != 0) {
        std::fputs(report_text().c_str(), stderr);
    }
}

void register_atexit_once() {
    static const bool registered = [] {
        std::atexit(atexit_report);
        return true;
    }();
    (void)registered;
}

void arm() {
    register_atexit_once();
    detail::g_enabled.store(true, std::memory_order_relaxed);
    cupp::trace::set_recorder(cupp::trace::recorder::kFaultsArmed, true);
}

[[noreturn]] void bad_plan(const std::string& what) {
    throw Error(ErrorCode::InvalidValue, "fault plan: " + what);
}

std::uint64_t plan_uint(const cupp::minijson::Value& v, const char* key) {
    if (!v.is_number() || v.number() < 0) {
        bad_plan(std::string(key) + " must be a non-negative number");
    }
    return static_cast<std::uint64_t>(v.number());
}

Rule parse_rule(const cupp::minijson::Value& v, std::size_t index) {
    if (!v.is_object()) bad_plan(format("rules[%zu] is not an object", index));
    Rule r;
    const auto* site = v.find("site");
    if (site == nullptr || !site->is_string() || !parse_site(site->str(), &r.site)) {
        bad_plan(format("rules[%zu]: missing or unknown \"site\"", index));
    }
    const auto* code = v.find("code");
    if (code == nullptr || !code->is_string() || !parse_code(code->str(), &r.code)) {
        bad_plan(format("rules[%zu]: missing or unknown \"code\"", index));
    }
    if (const auto* p = v.find("probability")) {
        if (!p->is_number() || p->number() < 0.0 || p->number() > 1.0) {
            bad_plan(format("rules[%zu]: probability must be in [0, 1]", index));
        }
        r.probability = p->number();
    }
    if (const auto* p = v.find("nth")) r.nth = plan_uint(*p, "nth");
    if (const auto* p = v.find("every")) r.every = plan_uint(*p, "every");
    if (const auto* p = v.find("max")) {
        const std::uint64_t cap = plan_uint(*p, "max");
        if (cap == 0) bad_plan(format("rules[%zu]: max must be >= 1", index));
        r.max_injections = cap;
    }
    if (const auto* p = v.find("filter")) {
        if (!p->is_string()) bad_plan(format("rules[%zu]: filter must be a string", index));
        r.filter = p->str();
    }
    if (r.probability == 0.0 && r.nth == 0 && r.every == 0) {
        bad_plan(format("rules[%zu]: needs a trigger (nth, every or probability)", index));
    }
    return r;
}

/// Reads CUPP_FAULTS / CUPP_FAULTS_REPORT once at static-init.
/// "seed:<n>" arms the default transient plan; anything else is a plan
/// file. A broken plan aborts the process — a fault-injection CI run that
/// silently executes fault-free would defeat its own purpose.
struct EnvGate {
    EnvGate() {
        const char* env = std::getenv("CUPP_FAULTS");
        if (env != nullptr && *env != '\0') {
            try {
                if (std::strncmp(env, "seed:", 5) == 0) {
                    enable_with_seed(std::strtoull(env + 5, nullptr, 10));
                } else {
                    enable_from_plan(env);
                }
            } catch (const Error& e) {
                std::fprintf(stderr, "cusim::faults: CUPP_FAULTS rejected: %s\n",
                             e.what());
                std::exit(2);
            }
        }
        if (const char* rep = std::getenv("CUPP_FAULTS_REPORT");
            rep != nullptr && *rep != '\0') {
            State::instance().set_report_path(rep);
            register_atexit_once();
        }
    }
};
const EnvGate g_env_gate;

}  // namespace

const char* site_name(Site site) {
    switch (site) {
        case Site::Malloc: return "malloc";
        case Site::MemcpyH2D: return "memcpy_h2d";
        case Site::MemcpyD2H: return "memcpy_d2h";
        case Site::MemcpyD2D: return "memcpy_d2d";
        case Site::Launch: return "launch";
        case Site::Sync: return "sync";
    }
    return "unknown";
}

bool parse_site(std::string_view name, Site* out) {
    for (std::size_t s = 0; s < kSiteCount; ++s) {
        if (name == site_name(static_cast<Site>(s))) {
            *out = static_cast<Site>(s);
            return true;
        }
    }
    return false;
}

const char* code_name(ErrorCode code) {
    switch (code) {
        case ErrorCode::Success: return "success";
        case ErrorCode::InvalidValue: return "invalid_value";
        case ErrorCode::InvalidConfiguration: return "invalid_configuration";
        case ErrorCode::MemoryAllocation: return "memory_allocation";
        case ErrorCode::InvalidDevicePointer: return "invalid_device_pointer";
        case ErrorCode::InvalidMemcpyDirection: return "invalid_memcpy_direction";
        case ErrorCode::InvalidDevice: return "invalid_device";
        case ErrorCode::LaunchFailure: return "launch_failure";
        case ErrorCode::NotReady: return "not_ready";
        case ErrorCode::DeviceInUse: return "device_in_use";
        case ErrorCode::MemcheckViolation: return "memcheck_violation";
        case ErrorCode::TransferFailure: return "transfer_failure";
        case ErrorCode::DeviceLost: return "device_lost";
        case ErrorCode::StreamCaptureInvalid: return "stream_capture_invalid";
        case ErrorCode::AdmissionRejected: return "admission_rejected";
        case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    }
    return "unknown";
}

bool parse_code(std::string_view name, ErrorCode* out) {
    // Success is not a valid injection target, so start past it. The codes
    // after DeviceLost (AdmissionRejected, DeadlineExceeded) are produced
    // by the cupp::serve layer above the device and are deliberately not
    // injectable here.
    for (int c = 1; c <= static_cast<int>(ErrorCode::DeviceLost); ++c) {
        if (name == code_name(static_cast<ErrorCode>(c))) {
            *out = static_cast<ErrorCode>(c);
            return true;
        }
    }
    return false;
}

void configure(std::vector<Rule> rules, std::uint64_t seed, std::string report_path) {
    State::instance().configure(std::move(rules), seed, std::move(report_path), "api");
    arm();
}

void enable_from_plan(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) bad_plan("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    cupp::minijson::Value root;
    try {
        root = cupp::minijson::parse(buf.str());
    } catch (const cupp::minijson::parse_error& e) {
        bad_plan(std::string("invalid JSON: ") + e.what());
    }
    if (!root.is_object()) bad_plan("top level is not an object");
    std::uint64_t seed = 0;
    if (const auto* s = root.find("seed")) seed = plan_uint(*s, "seed");
    std::string report;
    if (const auto* r = root.find("report")) {
        if (!r->is_string()) bad_plan("report must be a string");
        report = r->str();
    }
    const auto* rules_v = root.find("rules");
    if (rules_v == nullptr || !rules_v->is_array()) bad_plan("no rules array");
    std::vector<Rule> rules;
    rules.reserve(rules_v->array().size());
    for (std::size_t i = 0; i < rules_v->array().size(); ++i) {
        rules.push_back(parse_rule(rules_v->array()[i], i));
    }
    if (rules.empty()) bad_plan("rules array is empty");
    State::instance().configure(std::move(rules), seed, std::move(report), path);
    arm();
}

void enable_with_seed(std::uint64_t seed) {
    // Transient-only background noise: enough to exercise every retry
    // path over a full run, rare enough that bounded retries absorb it.
    std::vector<Rule> rules;
    Rule r;
    r.site = Site::Malloc;
    r.code = ErrorCode::MemoryAllocation;
    r.probability = 0.002;
    rules.push_back(r);
    r.site = Site::MemcpyH2D;
    r.code = ErrorCode::TransferFailure;
    r.probability = 0.005;
    rules.push_back(r);
    r.site = Site::MemcpyD2H;
    rules.push_back(r);
    r.site = Site::Launch;
    r.code = ErrorCode::LaunchFailure;
    rules.push_back(r);
    State::instance().configure(std::move(rules), seed, {},
                                format("seed:%llu",
                                       static_cast<unsigned long long>(seed)));
    arm();
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
    disable();
    cupp::trace::set_recorder(cupp::trace::recorder::kFaultsArmed, false);
    State::instance().clear();
}

void note_device_poisoned() {
    // Keep the fast-path gate up for the sticky check even if the rules
    // are later disabled. reset() is the only way back down.
    cupp::trace::set_recorder(cupp::trace::recorder::kFaultsArmed, true);
}

void preflight(Site site, std::string_view label, Device* dev) {
    if (dev != nullptr && dev->lost()) {
        throw Error(ErrorCode::DeviceLost,
                    format("%s rejected: device poisoned — recover with "
                           "device::reset()",
                           site_name(site)));
    }
    if (!enabled()) return;
    std::string message;
    std::uint64_t call_no = 0;
    const ErrorCode code = State::instance().evaluate(site, label, &message, &call_no);
    if (code == ErrorCode::Success) return;

    cupp::trace::metrics().add("cusim.faults.injections");
    cupp::trace::metrics().add(format("cusim.faults.%s", site_name(site)));
    if (cupp::trace::enabled()) {
        cupp::trace::emit_instant("faults", format("fault.%s", site_name(site)),
                                  cupp::trace::wall_clock_us(),
                                  {{"code", code_name(code)},
                                   {"label", label},
                                   {"call", call_no}});
    }
    if (code == ErrorCode::DeviceLost && dev != nullptr) dev->poison();
    throw Error(code, message);
}

std::vector<Rule> rules() { return State::instance().rules(); }

std::uint64_t injections() { return State::instance().injections(); }

std::uint64_t injections(Site site) { return State::instance().injections(site); }

std::uint64_t site_calls(Site site) { return State::instance().site_calls(site); }

std::string plan_source() { return State::instance().plan_source(); }

std::string report_path() { return State::instance().report_path(); }

std::string report_json() { return State::instance().to_json(); }

std::string report_text() { return State::instance().to_text(); }

bool write_report(const std::string& path) {
    const std::string target = path.empty() ? State::instance().report_path() : path;
    if (target.empty()) return false;
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << State::instance().to_json();
    return static_cast<bool>(out);
}

}  // namespace cusim::faults
