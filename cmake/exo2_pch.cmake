# Precompile the header native cjit units start with, for one flag set
# (DESIGN.md §7). The root CMakeLists.txt runs this at build time:
#
#   cmake -DCC=cc "-DFLAGS=-O1 -fPIC ... -mavx2 -mfma"
#         -DHEADER=src/verify/exo2_native.h -DDIR=<out dir>
#         -P cmake/exo2_pch.cmake
#
# Writes DIR/exo2_native.h, DIR/exo2_native.h.gch and
# DIR/exo2_native.stamp. The stamp holds the identity of the compiler
# that built the PCH, in the form cache::compiler_identity() returns
# ("<cc> <first line of cc --version>"); cjit passes the header only
# while the stamp matches its own compiler. A compiler that cannot build
# the PCH leaves an empty stamp, cjit compiles without it, and the build
# goes on.

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
set(header "${DIR}/exo2_native.h")
set(stamp "${DIR}/exo2_native.stamp")

# The stamp goes first and comes back last, and the PCH is renamed into
# place: a reader never pairs a matching stamp with a half-written PCH.
file(REMOVE "${stamp}" "${header}.gch")
file(MAKE_DIRECTORY "${DIR}")
configure_file("${HEADER}" "${header}" COPYONLY)

execute_process(
  COMMAND ${CC} ${flags} -x c-header "${header}" -o "${header}.gch.tmp"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  file(REMOVE "${header}.gch.tmp")
  file(WRITE "${stamp}" "")
  message(STATUS "exo2: no precompiled header in ${DIR}: ${CC} failed: ${out}")
  return()
endif()
file(RENAME "${header}.gch.tmp" "${header}.gch")

execute_process(
  COMMAND ${CC} --version
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE version
  ERROR_VARIABLE version)
set(identity "${CC}")
if(rc EQUAL 0)
  string(REGEX MATCH "^[^\n]*" first_line "${version}")
  set(identity "${CC} ${first_line}")
endif()
file(WRITE "${stamp}" "${identity}")
