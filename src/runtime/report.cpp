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

}  // namespace

std::string to_json(const RunReport& report, bool include_volatile) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"hyde.run_report.v1\",\n";
  out += "  \"verify_vectors\": " + std::to_string(report.verify_vectors) + ",\n";
  if (include_volatile) {
    out += "  \"workers\": " + std::to_string(report.workers) + ",\n";
    out += "  \"wall_seconds\": " + format_double(report.wall_seconds) + ",\n";
    out += "  \"bdd_kernel\": {";
    out += "\"cache_hits\": " + std::to_string(report.bdd.cache_hits);
    out += ", \"cache_misses\": " + std::to_string(report.bdd.cache_misses);
    out += ", \"cache_overwrites\": " +
           std::to_string(report.bdd.cache_overwrites);
    out += ", \"hit_rate\": " + format_double(report.bdd.hit_rate());
    out += ", \"gc_runs\": " + std::to_string(report.bdd.gc_runs);
    out += ", \"reorder_runs\": " + std::to_string(report.bdd.reorder_runs);
    out += ", \"peak_live_nodes\": " +
           std::to_string(report.bdd.peak_live_nodes);
    out += "},\n";
    out += "  \"search\": {";
    out += "\"selects\": " + std::to_string(report.search.selects);
    out += ", \"candidates_evaluated\": " +
           std::to_string(report.search.candidates_evaluated);
    out += ", \"memo_hits\": " + std::to_string(report.search.memo_hits);
    out += ", \"memo_clears\": " + std::to_string(report.search.memo_clears);
    out += "},\n";
    out += "  \"classes\": {";
    out += "\"signature_pairs\": " +
           std::to_string(report.classes.signature_pairs);
    out += ", \"bdd_pairs\": " + std::to_string(report.classes.bdd_pairs);
    out += "},\n";
    out += "  \"windows\": {";
    out += "\"extracted\": " + std::to_string(report.windows.extracted);
    out += ", \"resynthesized\": " +
           std::to_string(report.windows.resynthesized);
    out += ", \"passthrough\": " + std::to_string(report.windows.passthrough);
    out += ", \"budget_fallbacks\": " +
           std::to_string(report.windows.budget_fallbacks);
    out += ", \"split\": " + std::to_string(report.windows.split);
    out += ", \"verify_failures\": " +
           std::to_string(report.windows.verify_failures);
    out += ", \"peak_inputs\": " + std::to_string(report.windows.peak_inputs);
    out += ", \"peak_nodes\": " + std::to_string(report.windows.peak_nodes);
    out += ", \"extract_parallel\": " +
           std::to_string(report.windows.extract_parallel);
    out += ", \"steals\": " + std::to_string(report.windows.steals);
    out += ", \"workers\": " + std::to_string(report.windows.workers);
    out += ", \"worker_busy_seconds\": " +
           format_double(report.windows.worker_busy_seconds);
    out += ", \"worker_busy_peak_seconds\": " +
           format_double(report.windows.worker_busy_peak_seconds);
    out += ", \"max_window_seconds\": " +
           format_double(report.windows.max_window_seconds);
    out += "},\n";
    out += "  \"store\": {";
    out += std::string("\"enabled\": ") +
           (report.store.enabled ? "true" : "false");
    out += std::string(", \"readonly\": ") +
           (report.store.readonly ? "true" : "false");
    out += ", \"disk_hits\": " + std::to_string(report.store.disk_hits);
    out += ", \"disk_misses\": " + std::to_string(report.store.disk_misses);
    out += ", \"bytes_read\": " + std::to_string(report.store.bytes_read);
    out += ", \"bytes_written\": " + std::to_string(report.store.bytes_written);
    out += ", \"raw_bytes\": " + std::to_string(report.store.raw_bytes);
    out += ", \"coded_bytes\": " + std::to_string(report.store.coded_bytes);
    out += ", \"codec_ratio\": " + format_double(report.store.codec_ratio());
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
  out += "    \"flow_lookups\": " + std::to_string(report.cache.flow_lookups);
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
      out += ",\n      \"bdd\": {";
      out += "\"cache_hits\": " + std::to_string(job.stats.bdd_cache_hits);
      out += ", \"cache_misses\": " +
             std::to_string(job.stats.bdd_cache_misses);
      out += ", \"cache_overwrites\": " +
             std::to_string(job.stats.bdd_cache_overwrites);
      out += ", \"gc_runs\": " + std::to_string(job.stats.bdd_gc_runs);
      out += ", \"reorder_runs\": " +
             std::to_string(job.stats.bdd_reorder_runs);
      out += ", \"peak_live_nodes\": " +
             std::to_string(job.stats.bdd_peak_live_nodes);
      out += "}";
      out += ",\n      \"search\": {";
      out += "\"selects\": " + std::to_string(job.stats.search_selects);
      out += ", \"candidates_evaluated\": " +
             std::to_string(job.stats.search_candidates_evaluated);
      out += ", \"memo_hits\": " + std::to_string(job.stats.search_memo_hits);
      out += ", \"memo_clears\": " +
             std::to_string(job.stats.search_memo_clears);
      out += "}";
      out += ",\n      \"classes\": {";
      out += "\"signature_pairs\": " +
             std::to_string(job.stats.class_signature_pairs);
      out += ", \"bdd_pairs\": " + std::to_string(job.stats.class_bdd_pairs);
      out += "}";
      out += ",\n      \"windows\": {";
      out += "\"extracted\": " + std::to_string(job.stats.windows_extracted);
      out += ", \"resynthesized\": " +
             std::to_string(job.stats.windows_resynthesized);
      out += ", \"passthrough\": " +
             std::to_string(job.stats.windows_passthrough);
      out += ", \"budget_fallbacks\": " +
             std::to_string(job.stats.windows_budget_fallbacks);
      out += ", \"split\": " + std::to_string(job.stats.windows_split);
      out += ", \"verify_failures\": " +
             std::to_string(job.stats.windows_verify_failures);
      out += ", \"peak_inputs\": " +
             std::to_string(job.stats.window_peak_inputs);
      out += ", \"peak_nodes\": " +
             std::to_string(job.stats.window_peak_nodes);
      out += ", \"extract_seconds\": " +
             format_double(job.stats.window_extract_seconds);
      out += ", \"stitch_seconds\": " +
             format_double(job.stats.window_stitch_seconds);
      out += ", \"extract_parallel\": " +
             std::to_string(job.stats.windows_extract_parallel);
      out += ", \"steals\": " + std::to_string(job.stats.window_steals);
      out += ", \"workers\": " + std::to_string(job.stats.window_workers);
      out += ", \"worker_busy_seconds\": " +
             format_double(job.stats.window_worker_busy_seconds);
      out += ", \"worker_busy_peak_seconds\": " +
             format_double(job.stats.window_worker_busy_peak_seconds);
      out += ", \"max_window_seconds\": " +
             format_double(job.stats.window_max_seconds);
      out += ", \"max_window_index\": " +
             std::to_string(job.stats.window_max_index);
      out += "}";
      out += ",\n      \"store\": {";
      out += "\"disk_hits\": " + std::to_string(job.stats.store_disk_hits);
      out += ", \"disk_misses\": " +
             std::to_string(job.stats.store_disk_misses);
      out += "}";
      out += ",\n      \"profile\": {";
      out += "\"varpart_seconds\": " +
             format_double(job.stats.varpart_seconds);
      out += ", \"classes_seconds\": " +
             format_double(job.stats.classes_seconds);
      out += ", \"encoding_seconds\": " +
             format_double(job.stats.encoding_seconds);
      out += ", \"mapping_seconds\": " +
             format_double(job.stats.mapping_seconds);
      out += "}";
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
      "bdd_cache_hits,bdd_cache_misses,bdd_gc_runs,bdd_reorder_runs,"
      "bdd_peak_live_nodes,"
      "search_selects,search_evaluated,search_memo_hits,"
      "varpart_seconds,classes_seconds,encoding_seconds,mapping_seconds,"
      "class_signature_pairs,class_bdd_pairs,"
      "windows_extracted,windows_resynthesized,windows_passthrough,"
      "windows_budget_fallbacks,windows_split,windows_verify_failures,"
      "windows_extract_parallel,window_steals,window_max_seconds,"
      "store_disk_hits,store_disk_misses\n";
  for (const JobReport& job : report.jobs) {
    out += job.circuit + "," + job.system + "," + std::to_string(job.k) + "," +
           std::to_string(job.seed) + "," + std::to_string(job.luts) + "," +
           std::to_string(job.clbs) + "," + std::to_string(job.depth) + "," +
           (job.verified ? "1" : "0") + "," + job.error + "," +
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
           std::to_string(job.stats.bdd_reorder_runs) + "," +
           std::to_string(job.stats.bdd_peak_live_nodes) + "," +
           std::to_string(job.stats.search_selects) + "," +
           std::to_string(job.stats.search_candidates_evaluated) + "," +
           std::to_string(job.stats.search_memo_hits) + "," +
           format_double(job.stats.varpart_seconds) + "," +
           format_double(job.stats.classes_seconds) + "," +
           format_double(job.stats.encoding_seconds) + "," +
           format_double(job.stats.mapping_seconds) + "," +
           std::to_string(job.stats.class_signature_pairs) + "," +
           std::to_string(job.stats.class_bdd_pairs) + "," +
           std::to_string(job.stats.windows_extracted) + "," +
           std::to_string(job.stats.windows_resynthesized) + "," +
           std::to_string(job.stats.windows_passthrough) + "," +
           std::to_string(job.stats.windows_budget_fallbacks) + "," +
           std::to_string(job.stats.windows_split) + "," +
           std::to_string(job.stats.windows_verify_failures) + "," +
           std::to_string(job.stats.windows_extract_parallel) + "," +
           std::to_string(job.stats.window_steals) + "," +
           format_double(job.stats.window_max_seconds) + "," +
           std::to_string(job.stats.store_disk_hits) + "," +
           std::to_string(job.stats.store_disk_misses) + "\n";
  }
  return out;
}

}  // namespace hyde::runtime
