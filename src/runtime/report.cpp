#include "runtime/report.hpp"

#include <cstdio>

namespace hyde::runtime {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

/// Writes the volatile engine blocks of \p s (bdd, search, classes, store,
/// profile) as JSON members separated by \p sep.
void append_volatile_stats(std::string& out, const core::FlowStats& s,
                           const char* sep) {
  out += "\"bdd\": {";
  out += "\"cache_hits\": " + std::to_string(s.bdd_cache_hits);
  out += ", \"cache_misses\": " + std::to_string(s.bdd_cache_misses);
  out += ", \"cache_overwrites\": " + std::to_string(s.bdd_cache_overwrites);
  out += ", \"gc_runs\": " + std::to_string(s.bdd_gc_runs);
  out += ", \"peak_live_nodes\": " + std::to_string(s.bdd_peak_live_nodes);
  out += "}";
  out += sep;
  out += "\"search\": {";
  out += "\"selects\": " + std::to_string(s.search_selects);
  out += ", \"candidates_evaluated\": " +
         std::to_string(s.search_candidates_evaluated);
  out += "}";
  out += sep;
  out += "\"classes\": {";
  out += "\"signature_pairs\": " + std::to_string(s.class_signature_pairs);
  out += ", \"bdd_pairs\": " + std::to_string(s.class_bdd_pairs);
  out += "}";
  out += sep;
  out += "\"store\": {";
  out += "\"disk_hits\": " + std::to_string(s.store_disk_hits);
  out += ", \"disk_misses\": " + std::to_string(s.store_disk_misses);
  out += "}";
  out += sep;
  out += "\"profile\": {";
  out += "\"varpart_seconds\": " + format_double(s.varpart_seconds);
  out += ", \"classes_seconds\": " + format_double(s.classes_seconds);
  out += ", \"encoding_seconds\": " + format_double(s.encoding_seconds);
  out += ", \"mapping_seconds\": " + format_double(s.mapping_seconds);
  out += "}";
}

/// A CSV field, quoted as RFC 4180 asks when it holds a separator, a quote
/// or a line break.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

}  // namespace

std::string to_json(const RunReport& report, bool include_volatile) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"hyde.run_report.v1\",\n";
  out += "  \"verify_vectors\": " + std::to_string(report.verify_vectors) + ",\n";
  if (include_volatile) {
    out += "  \"workers\": " + std::to_string(report.workers) + ",\n";
    out += "  \"wall_seconds\": " + format_double(report.wall_seconds) + ",\n";
    out += "  \"totals\": {\n    ";
    append_volatile_stats(out, report.totals, ",\n    ");
    out += "\n  },\n";
    out += "  \"store\": {";
    out += std::string("\"enabled\": ") +
           (report.store.enabled ? "true" : "false");
    out += std::string(", \"readonly\": ") +
           (report.store.readonly ? "true" : "false");
    out += ", \"disk_hits\": " + std::to_string(report.store.disk_hits);
    out += ", \"disk_misses\": " + std::to_string(report.store.disk_misses);
    out += ", \"bytes_read\": " + std::to_string(report.store.bytes_read);
    out += ", \"bytes_written\": " + std::to_string(report.store.bytes_written);
    out += ", \"evictions\": " + std::to_string(report.store.evictions);
    out += ", \"corrupt_records\": " +
           std::to_string(report.store.corrupt_records);
    out += ", \"appends\": " + std::to_string(report.store.appends);
    out += ", \"records\": " + std::to_string(report.store.records);
    out += ", \"job_hits\": " + std::to_string(report.store.job_hits);
    out += ", \"job_appends\": " + std::to_string(report.store.job_appends);
    out += "},\n";
  }
  out += "  \"cache\": {\n";
  out += std::string("    \"enabled\": ") +
         (report.cache.enabled ? "true" : "false") + ",\n";
  out += "    \"max_support\": " + std::to_string(report.cache.max_support) + ",\n";
  out += "    \"flow_lookups\": " + std::to_string(report.totals.cache_lookups);
  // The memory tier's distinct-function count is a pure function of the job
  // list only while no persistent tier exists; with a store attached, disk
  // promotions and whole-job replays legitimately change which keys the
  // memory tier ever sees, so the field moves to the volatile group (keeping
  // cold and warm deterministic outputs diffable).
  if (!report.store.enabled || include_volatile) {
    out += ",\n    \"unique_functions\": " +
           std::to_string(report.cache.unique_functions);
  }
  if (include_volatile) {
    out += ",\n";
    out += "    \"hits\": " + std::to_string(report.cache.hits) + ",\n";
    out += "    \"misses\": " + std::to_string(report.cache.misses) + ",\n";
    out += "    \"races_lost\": " + std::to_string(report.cache.races_lost) + ",\n";
    out += "    \"hit_rate\": " + format_double(report.cache.hit_rate()) + "\n";
  } else {
    out += "\n";
  }
  out += "  },\n";
  out += "  \"jobs\": [\n";
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const JobReport& job = report.jobs[i];
    out += "    {\n";
    out += "      \"circuit\": ";
    append_escaped(out, job.circuit);
    out += ",\n      \"system\": ";
    append_escaped(out, job.system);
    out += ",\n      \"k\": " + std::to_string(job.k);
    out += ",\n      \"seed\": " + std::to_string(job.seed);
    out += ",\n      \"luts\": " + std::to_string(job.luts);
    out += ",\n      \"clbs\": " + std::to_string(job.clbs);
    out += ",\n      \"depth\": " + std::to_string(job.depth);
    out += std::string(",\n      \"verified\": ") +
           (job.verified ? "true" : "false");
    out += ",\n      \"error\": ";
    append_escaped(out, job.error);
    out += ",\n      \"stats\": {";
    out += "\"decomposition_steps\": " +
           std::to_string(job.stats.decomposition_steps);
    out += ", \"shannon_fallbacks\": " +
           std::to_string(job.stats.shannon_fallbacks);
    out += ", \"hyper_groups\": " + std::to_string(job.stats.hyper_groups);
    out += ", \"encoder_runs\": " + std::to_string(job.stats.encoder_runs);
    out += ", \"encoder_random_kept\": " +
           std::to_string(job.stats.encoder_random_kept);
    out += std::string(", \"collapse_mode\": ") +
           (job.stats.collapse_mode ? "true" : "false");
    out += ", \"cache_lookups\": " + std::to_string(job.stats.cache_lookups);
    out += "}";
    if (include_volatile) {
      out += ",\n      \"seconds\": " + format_double(job.seconds);
      out += ",\n      ";
      append_volatile_stats(out, job.stats, ",\n      ");
    }
    out += "\n    }";
    out += i + 1 < report.jobs.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string to_csv(const RunReport& report) {
  std::string out =
      "circuit,system,k,seed,luts,clbs,depth,verified,error,"
      "decomposition_steps,shannon_fallbacks,hyper_groups,encoder_runs,"
      "encoder_random_kept,collapse_mode,cache_lookups,seconds,"
      "bdd_cache_hits,bdd_cache_misses,bdd_gc_runs,"
      "bdd_peak_live_nodes,"
      "search_selects,search_evaluated,"
      "varpart_seconds,classes_seconds,encoding_seconds,mapping_seconds,"
      "class_signature_pairs,class_bdd_pairs,"
      "store_disk_hits,store_disk_misses\n";
  for (const JobReport& job : report.jobs) {
    out += csv_field(job.circuit) + "," + csv_field(job.system) + "," +
           std::to_string(job.k) + "," +
           std::to_string(job.seed) + "," + std::to_string(job.luts) + "," +
           std::to_string(job.clbs) + "," + std::to_string(job.depth) + "," +
           (job.verified ? "1" : "0") + "," + csv_field(job.error) + "," +
           std::to_string(job.stats.decomposition_steps) + "," +
           std::to_string(job.stats.shannon_fallbacks) + "," +
           std::to_string(job.stats.hyper_groups) + "," +
           std::to_string(job.stats.encoder_runs) + "," +
           std::to_string(job.stats.encoder_random_kept) + "," +
           (job.stats.collapse_mode ? "1" : "0") + "," +
           std::to_string(job.stats.cache_lookups) + "," +
           format_double(job.seconds) + "," +
           std::to_string(job.stats.bdd_cache_hits) + "," +
           std::to_string(job.stats.bdd_cache_misses) + "," +
           std::to_string(job.stats.bdd_gc_runs) + "," +
           std::to_string(job.stats.bdd_peak_live_nodes) + "," +
           std::to_string(job.stats.search_selects) + "," +
           std::to_string(job.stats.search_candidates_evaluated) + "," +
           format_double(job.stats.varpart_seconds) + "," +
           format_double(job.stats.classes_seconds) + "," +
           format_double(job.stats.encoding_seconds) + "," +
           format_double(job.stats.mapping_seconds) + "," +
           std::to_string(job.stats.class_signature_pairs) + "," +
           std::to_string(job.stats.class_bdd_pairs) + "," +
           std::to_string(job.stats.store_disk_hits) + "," +
           std::to_string(job.stats.store_disk_misses) + "\n";
  }
  return out;
}

}  // namespace hyde::runtime
